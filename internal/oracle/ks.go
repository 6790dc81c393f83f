package oracle

import (
	"math"
	"sort"
)

// ExpKS computes the Kolmogorov-Smirnov statistic of samples against the
// exponential distribution whose rate is fitted from the sample mean
// (rate = 1/mean). It returns the statistic D and the sample count.
//
// Because the rate is estimated from the same data, D is stochastically
// smaller than under a fully specified null (the Lilliefors effect), so
// comparing D·√n against a plain-KS critical value is conservative:
// exponential data essentially never exceeds it, while data from a
// different shape (uniform, deterministic, heavy-tailed) does.
func ExpKS(samples []float64) (d float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if mean <= 0 {
		return 1, n
	}
	rate := 1 / mean

	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		f := 1 - math.Exp(-rate*x) // fitted exponential CDF
		lo := float64(i) / float64(n)
		hi := float64(i+1) / float64(n)
		if diff := math.Abs(f - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(f - hi); diff > d {
			d = diff
		}
	}
	return d, n
}
