package main

import "testing"

// ramp returns 1..n ascending, so the p-th percentile's value is its rank.
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// TestPercentile pins the percentile rule: nearest rank on the raw
// samples, i.e. the smallest observed value with at least p% of the
// samples at or below it. No interpolation, ever.
func TestPercentile(t *testing.T) {
	tests := []struct {
		samples []float64
		p, want float64
	}{
		{ramp(100), 50, 50},
		{ramp(100), 90, 90},
		{ramp(100), 95, 95},
		{ramp(100), 99, 99},
		{ramp(101), 50, 51},             // ceil(50.5)
		{ramp(10), 90, 9},               // ceil(9.0)
		{ramp(10), 91, 10},              // ceil(9.1)
		{ramp(4), 50, 2},                // even count: the lower middle, an observed value
		{ramp(1), 99, 1},                // one sample is every percentile
		{[]float64{1, 1, 1, 50}, 75, 1}, // rank 3 of 4
		{[]float64{1, 1, 1, 50}, 76, 50},
		{nil, 50, 0},
	}
	for _, tc := range tests {
		if got := percentile(tc.samples, tc.p); got != tc.want {
			t.Errorf("percentile(%d samples, p%g) = %g, want %g", len(tc.samples), tc.p, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %g, want 5", got)
	}
}

// TestQualifyingTail pins the refusal rule: a percentile is reported only
// if at least 10 samples lie beyond it; otherwise the highest rung of the
// ladder that qualifies is reported in its place.
func TestQualifyingTail(t *testing.T) {
	tests := []struct {
		n            int
		want         float64
		wantP, wantV float64
	}{
		{1000, 99, 99, 990}, // 10 beyond p99
		{999, 99, 95, 950},  // p99 leaves 9: refused, p95 (ceil 949.05 = 950) stands in
		{200, 95, 95, 190},  // exactly 10 beyond p95
		{199, 95, 90, 180},  // 9 beyond p95 (rank 190): down to p90 (rank 180)
		{100, 90, 90, 90},   // exactly 10 beyond p90
		{99, 90, 75, 75},    // 9 beyond p90: p75 (rank 75, 24 beyond)
		{40, 90, 75, 30},    // 10 beyond p75
		{39, 90, 50, 20},    // p75 leaves 9: the median
		{12, 90, 50, 6},     // too few for any tail: the median regardless
		{1000, 90, 90, 900}, // never above what was asked for
	}
	for _, tc := range tests {
		p, v := qualifyingTail(ramp(tc.n), tc.want)
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("qualifyingTail(n=%d, want p%g) = p%g %g, want p%g %g", tc.n, tc.want, p, v, tc.wantP, tc.wantV)
		}
	}
}
