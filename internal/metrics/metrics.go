// Package metrics provides time-series recording and lifetime extraction
// shared by the experiment harness: generic (time, value) series, the
// cumulative-ratio series used for data delivery lifetime, and helpers to
// find threshold crossings.
package metrics

import "sync"

// Point is one timed observation.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series.
type Series struct {
	name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Record appends an observation. Observations must be appended in
// non-decreasing time order; the experiment drivers guarantee this.
func (s *Series) Record(t, v float64) { s.points = append(s.points, Point{T: t, V: v}) }

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.points) }

// Reset empties the series, keeping its storage for the observations to
// come.
func (s *Series) Reset() { s.points = s.points[:0] }

// Points returns a copy of the observations.
func (s *Series) Points() []Point { return append([]Point(nil), s.points...) }

// Restore replaces the observations with a copy of points, as captured
// earlier with Points. The checkpoint subsystem uses it to carry metric
// series across a snapshot/resume boundary.
func (s *Series) Restore(points []Point) {
	s.points = append(s.points[:0], points...)
}

// Last returns the final observation, and false when the series is empty.
func (s *Series) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// FirstBelow returns the time of the first observation with V < threshold
// sustained for `sustain` consecutive observations. When the series never
// sustains a drop it returns the last observation time and false.
func (s *Series) FirstBelow(threshold float64, sustain int) (float64, bool) {
	return FirstBelow(len(s.points), func(i int) Point { return s.points[i] }, threshold, sustain)
}

// FirstBelow is the sustained-drop rule over n observations, the i-th
// read through at: the time of the first of the first `sustain`
// consecutive observations with V < threshold (sustain < 1 counts as 1).
// Without such a run it returns the last observation time and false,
// and 0 and false when n is 0. Series.FirstBelow and the coverage
// tracker's lifetime both apply it; at lets the tracker read one
// K-coverage column in place, without building a series.
func FirstBelow(n int, at func(i int) Point, threshold float64, sustain int) (float64, bool) {
	if n == 0 {
		return 0, false
	}
	if sustain < 1 {
		sustain = 1
	}
	run := 0
	for i := 0; i < n; i++ {
		if at(i).V < threshold {
			run++
			if run >= sustain {
				return at(i - sustain + 1).T, true
			}
		} else {
			run = 0
		}
	}
	return at(n - 1).T, false
}

// MaxV returns the maximum observed value, or 0 for an empty series.
func (s *Series) MaxV() float64 {
	var m float64
	for i, p := range s.points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// MeanAfter returns the mean of observations with T >= t0, or 0 when none
// qualify. Experiments use it to read the steady-state working-node count
// after the boot-up transient.
func (s *Series) MeanAfter(t0 float64) float64 {
	var sum float64
	n := 0
	for _, p := range s.points {
		if p.T >= t0 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Counters is an ordered set of named uint64 counters. The chaos layer
// records one counter per fault class through it, the CLI summaries
// (peas-sim, peas-live) render whatever is present, and the
// simulation service shares one set across its whole worker pool, so
// every substrate reports faults and job activity uniformly. All methods
// are safe for concurrent use: writes from simulator callbacks, live
// transport goroutines and server workers may interleave freely.
type Counters struct {
	mu    sync.Mutex
	names []string
	vals  map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{vals: make(map[string]uint64)} }

// Add increments the named counter by n, creating it at zero first. The
// creation order is remembered and used by Names.
func (c *Counters) Add(name string, n uint64) {
	c.mu.Lock()
	if _, ok := c.vals[name]; !ok {
		c.names = append(c.names, name)
	}
	c.vals[name] += n
	c.mu.Unlock()
}

// Get returns the named counter's value (zero when absent).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[name]
}

// Names returns the counter names in creation order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.names...)
}

// Snapshot returns a copy of the counter values keyed by name.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.vals))
	for k, v := range c.vals {
		out[k] = v
	}
	return out
}

// Ratio tracks a cumulative success ratio, the paper's data-delivery
// metric: "the ratio of the number of reports successfully received at
// the sink to the total number of reports generated by the source up to
// that time".
type Ratio struct {
	generated int
	succeeded int
	series    *Series
}

// NewRatio returns an empty cumulative ratio recorder.
func NewRatio(name string) *Ratio { return &Ratio{series: NewSeries(name)} }

// Observe records one attempt at time t and its outcome, then appends the
// cumulative ratio to the underlying series.
func (r *Ratio) Observe(t float64, success bool) {
	r.generated++
	if success {
		r.succeeded++
	}
	r.series.Record(t, r.Value())
}

// Value returns the current cumulative ratio (1 when nothing generated,
// so a network that never had to deliver is not counted as failed).
func (r *Ratio) Value() float64 {
	if r.generated == 0 {
		return 1
	}
	return float64(r.succeeded) / float64(r.generated)
}

// Reset empties the recorder, keeping the series' storage.
func (r *Ratio) Reset() { r.Restore(0, 0, nil) }

// Counts returns (generated, succeeded).
func (r *Ratio) Counts() (generated, succeeded int) { return r.generated, r.succeeded }

// Restore replaces the cumulative counts and the recorded series with
// captured values.
func (r *Ratio) Restore(generated, succeeded int, points []Point) {
	r.generated = generated
	r.succeeded = succeeded
	r.series.Restore(points)
}

// Series exposes the cumulative-ratio time series.
func (r *Ratio) Series() *Series { return r.series }
