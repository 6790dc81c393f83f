package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is one slow
// request's luck, not a property of the system.
const minBeyond = 10

// tailLadder lists the percentiles the benchmark is willing to report,
// highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// rankOf is the nearest-rank index (1-based) of percentile p among n
// samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank p-th percentile of ascending raw
// samples: an observed value, never an interpolation (0 when empty).
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rankOf(len(asc), p)-1]
}

// qualifyingTail returns the highest percentile on the ladder that is no
// higher than want and leaves at least minBeyond samples above it, with
// its value. With too few samples for any rung it falls back to the
// median, the one figure the guide always asks for.
func qualifyingTail(asc []float64, want float64) (p, v float64) {
	for _, p := range tailLadder {
		if p <= want && len(asc)-rankOf(len(asc), p) >= minBeyond {
			return p, percentile(asc, p)
		}
	}
	return 50, percentile(asc, 50)
}

// median of unsorted values (0 when empty). Even counts take the lower
// middle so the result is always a measured value.
func median(v []float64) float64 {
	return percentile(sorted(v), 50)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
