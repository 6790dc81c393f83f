package metrics

import (
	"math"
	"sync"
	"testing"

	"peas/internal/stats"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram not zero-valued: count=%d sum=%g max=%g p50=%g",
			h.Count(), h.Sum(), h.Max(), h.Quantile(0.5))
	}
	if snap := h.Snapshot(); snap.Count != 0 || len(snap.Buckets) != 0 {
		t.Errorf("empty snapshot = %+v", snap)
	}
}

// TestHistogramBucketGeometry pins the log-linear invariants: indexes
// are monotone in the value, every value falls at or below its bucket's
// upper bound and above the previous bucket's, and the relative error
// of the bound is within 1/histSubBuckets.
func TestHistogramBucketGeometry(t *testing.T) {
	prev := -1
	for v := 1e-7; v < 1e5; v *= 1.07 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucket index not monotone at v=%g: %d after %d", v, i, prev)
		}
		prev = i
		ub := bucketUpperBound(i)
		if v > ub {
			t.Fatalf("v=%g above its bucket bound %g (bucket %d)", v, ub, i)
		}
		if i > 0 {
			lb := bucketUpperBound(i - 1)
			if v <= lb && bucketIndex(v) == i {
				t.Fatalf("v=%g at or below previous bound %g but in bucket %d", v, lb, i)
			}
		}
		if v > histMinValue {
			if rel := (ub - v) / v; rel > 2.0/histSubBuckets {
				t.Fatalf("v=%g: bound %g has relative error %g", v, ub, rel)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 ms, exact ranks known.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Max(); got != 1.0 {
		t.Errorf("max = %g, want 1.0", got)
	}
	checks := []struct{ q, want float64 }{
		{0.50, 0.500},
		{0.90, 0.900},
		{0.99, 0.990},
		{1.00, 1.000},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		// The log-linear bound overshoots by at most one sub-bucket.
		if got < c.want || got > c.want*(1+2.0/histSubBuckets) {
			t.Errorf("p%g = %g, want within [%g, %g]", c.q*100, got,
				c.want, c.want*(1+2.0/histSubBuckets))
		}
	}
	if mean := h.Mean(); math.Abs(mean-0.5005) > 1e-9 {
		t.Errorf("mean = %g, want 0.5005", mean)
	}
}

func TestHistogramSnapshotCumulates(t *testing.T) {
	h := NewHistogram()
	vals := []float64{0, 1e-7, 0.001, 0.001, 0.25, 3.5, -1}
	for _, v := range vals {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != uint64(len(vals)) {
		t.Fatalf("snapshot count = %d, want %d", snap.Count, len(vals))
	}
	var total uint64
	last := -1.0
	for _, b := range snap.Buckets {
		if b.UpperBound <= last {
			t.Fatalf("bucket bounds not ascending: %g after %g", b.UpperBound, last)
		}
		last = b.UpperBound
		total += b.Count
	}
	if total != snap.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, snap.Count)
	}
	if snap.Max != 3.5 {
		t.Errorf("snapshot max = %g", snap.Max)
	}
}

// TestHistogramConcurrent exercises the histogram from many goroutines;
// under -race this is the thread-safety proof, and the final count and
// sum must be exact regardless of interleaving.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const writers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(int64(w))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
				if i%100 == 0 {
					_ = h.Quantile(0.99)
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != writers*per {
		t.Errorf("count = %d, want %d", h.Count(), writers*per)
	}
	if p100 := h.Quantile(1); p100 > 1 {
		t.Errorf("p100 = %g for values in [0,1)", p100)
	}
}
