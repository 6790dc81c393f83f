package metrics

import (
	"math"
	"sync"
)

// Histogram bucket geometry: HDR-style log-linear. Values at or below
// histMinValue land in bucket 0; above it, each power-of-two octave is
// divided into histSubBuckets linear sub-buckets, so the relative
// quantile error is bounded by 1/histSubBuckets (~6%) across the whole
// range without pre-declaring bounds. With a 1µs floor and 64 octaves
// the geometry spans from sub-microsecond to ~5.8×10^5 years, so no
// observable latency can overflow it.
const (
	histMinValue   = 1e-6
	histSubBuckets = 16
	histOctaves    = 64
	histBuckets    = 1 + histOctaves*histSubBuckets
)

// Histogram is a mutex-safe log-linear histogram for latency-style
// observations (non-negative float64 values, conventionally seconds).
// It records into fixed log-linear buckets, so Observe is O(1), memory
// is constant, and quantile reads are a single bucket walk. All methods
// are safe for concurrent use; the jobqueue pool shares one histogram
// across every worker and the load generator shares one across every
// in-flight request.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	max    float64
	min    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its log-linear bucket.
func bucketIndex(v float64) int {
	if v <= histMinValue || math.IsNaN(v) {
		return 0
	}
	// frexp-based octave: v/histMinValue in [2^e, 2^(e+1)) with
	// frac in [0.5, 1).
	frac, exp := math.Frexp(v / histMinValue)
	octave := exp - 1
	if octave >= histOctaves {
		return histBuckets - 1
	}
	// frac*2 is in [1, 2); its fractional part selects the linear
	// sub-bucket within the octave.
	sub := int((frac*2 - 1) * histSubBuckets)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return 1 + octave*histSubBuckets + sub
}

// bucketUpperBound is the inclusive upper edge of a bucket.
func bucketUpperBound(i int) float64 {
	if i <= 0 {
		return histMinValue
	}
	i--
	octave := i / histSubBuckets
	sub := i % histSubBuckets
	return histMinValue * math.Ldexp(1+float64(sub+1)/histSubBuckets, octave)
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := bucketIndex(v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if h.count == 1 || v < h.min {
		h.min = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]): the
// upper edge of the bucket holding the rank-⌈q·count⌉ observation,
// clamped to the exact observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			ub := bucketUpperBound(i)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// HistogramBucket is one non-empty bucket of a snapshot: Count
// observations with values at or below UpperBound (and above the
// previous bucket's bound). Counts are per-bucket, not cumulative.
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, the form the
// Prometheus renderer and the loadgen JSON report consume.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns a consistent copy: totals plus the non-empty buckets
// in ascending bound order.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c > 0 {
			snap.Buckets = append(snap.Buckets, HistogramBucket{
				UpperBound: bucketUpperBound(i),
				Count:      c,
			})
		}
	}
	return snap
}
