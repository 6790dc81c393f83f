// Package coverage computes K-coverage over the deployment field and
// tracks coverage lifetime, the paper's primary metric (§5.2): "the
// sensing coverage is defined as the percentage of the field monitored by
// working nodes", and "K-coverage [is] the percentage of the field size
// monitored by at least K working nodes".
package coverage

import (
	"peas/internal/geom"
	"peas/internal/metrics"
)

// Lattice is a fixed sampling grid over a field used to estimate coverage
// percentages. A spacing of 1 m over the paper's 50 x 50 m field gives a
// 2601-point estimator, accurate to well under the 90% threshold margin.
type Lattice struct {
	field   geom.Field
	spacing float64
	// The points are laid out row-major. Every row repeats the same
	// accumulated x sequence, so the lattice keeps one copy of each axis:
	// point i is (xs[i%len(xs)], ys[i/len(xs)]).
	xs, ys []float64
	counts []int32 // Fraction scratch, reused across samples
}

// NewLattice builds a sampling lattice with the given spacing in meters.
func NewLattice(field geom.Field, spacing float64) *Lattice {
	l := new(Lattice)
	l.Reset(field, spacing)
	return l
}

// Reset rebuilds l as NewLattice would, in the storage l grew before.
func (l *Lattice) Reset(field geom.Field, spacing float64) {
	if spacing <= 0 {
		spacing = 1
	}
	axis := func(coords []float64, length float64) []float64 {
		coords = geom.Zeroed(coords, max(int(length/spacing)+2, 0))[:0]
		for c := 0.0; c <= length; c += spacing {
			coords = append(coords, c)
		}
		return coords
	}
	*l = Lattice{field: field, spacing: spacing, xs: axis(l.xs, field.Width), ys: axis(l.ys, field.Height), counts: l.counts}
}

// Len returns the number of sample points.
func (l *Lattice) Len() int { return len(l.xs) * len(l.ys) }

// Point returns sample point i.
func (l *Lattice) Point(i int) geom.Point { return l.at(i%len(l.xs), i/len(l.xs)) }

// at returns the lattice point in column col of row row.
func (l *Lattice) at(col, row int) geom.Point { return geom.Point{X: l.xs[col], Y: l.ys[row]} }

// window returns the columns c0..c1 and rows r0..r1 of the lattice points
// a disk of the given radius around s could cover, clamped to the lattice.
// Lattice coordinates are accumulated sums, so the range is padded by one
// cell each way to absorb any accumulation drift; callers decide
// membership with the exact Dist2 test.
func (l *Lattice) window(s geom.Point, radius float64) (c0, c1, r0, r1 int) {
	c0 = max(int((s.X-radius)/l.spacing)-1, 0)
	c1 = min(int((s.X+radius)/l.spacing)+1, len(l.xs)-1)
	r0 = max(int((s.Y-radius)/l.spacing)-1, 0)
	r1 = min(int((s.Y+radius)/l.spacing)+1, len(l.ys)-1)
	return c0, c1, r0, r1
}

// CoveredMask returns, for each sample point, whether at least one of the
// given sensors covers it with the given radius.
func (l *Lattice) CoveredMask(sensors []geom.Point, radius float64) []bool {
	mask := make([]bool, l.Len())
	if len(sensors) == 0 {
		return mask
	}
	idx := geom.NewIndex(l.field, sensors, radius)
	for i := range mask {
		found := false
		idx.Within(l.Point(i), radius, func(int, float64) { found = true })
		mask[i] = found
	}
	return mask
}

// Fraction returns, for each K in 1..maxK, the fraction of sample points
// covered by at least K of the given sensor positions with the given
// sensing radius.
//
// The count is computed by stamping each sensor's disk onto the lattice
// rather than running one range query per lattice point: a sensor only
// visits the ~pi*r^2/spacing^2 points it could cover, instead of every
// point scanning every candidate sensor. The membership predicate is the
// same exact squared-distance comparison either way, so the per-point
// counts — and therefore the reported fractions — are identical.
func (l *Lattice) Fraction(sensors []geom.Point, radius float64, maxK int) []float64 {
	if maxK < 1 {
		maxK = 1
	}
	out := make([]float64, maxK)
	n := l.Len()
	if n == 0 {
		return out
	}
	if l.counts == nil {
		l.counts = make([]int32, n)
	}
	counts := l.counts
	clear(counts)
	if len(sensors) > 0 && radius >= 0 {
		r2 := radius * radius
		for _, s := range sensors {
			c0, c1, r0, r1 := l.window(s, radius)
			for row := r0; row <= r1; row++ {
				base := row * len(l.xs)
				for col := c0; col <= c1; col++ {
					if l.at(col, row).Dist2(s) <= r2 {
						counts[base+col]++
					}
				}
			}
		}
	}
	for _, c := range counts {
		k := int(c)
		if k > maxK {
			k = maxK
		}
		for i := 0; i < k; i++ {
			out[i]++
		}
	}
	for k := range out {
		out[k] /= float64(n)
	}
	return out
}

// FractionK is Fraction for a single K.
func (l *Lattice) FractionK(sensors []geom.Point, radius float64, k int) float64 {
	if k < 1 {
		k = 1
	}
	return l.Fraction(sensors, radius, k)[k-1]
}

// Sample is one timed coverage observation.
type Sample struct {
	T float64
	// ByK[k-1] is the K-coverage fraction.
	ByK []float64
}

// Tracker accumulates periodic coverage samples and derives lifetimes.
type Tracker struct {
	MaxK    int
	samples []Sample
	// byK holds every sample's ByK values, one sample after another; each
	// ByK aliases its stretch.
	byK []float64
}

// NewTracker returns a tracker for coverage degrees 1..maxK.
func NewTracker(maxK int) *Tracker {
	t := new(Tracker)
	t.Reset(maxK)
	return t
}

// Reset empties t and sets its coverage degrees to 1..maxK, keeping its
// storage for the samples to come. Slices Samples returned before alias
// that storage and are overwritten; CopySamples ones are not.
func (t *Tracker) Reset(maxK int) {
	if maxK < 1 {
		maxK = 1
	}
	t.MaxK, t.samples, t.byK = maxK, t.samples[:0], t.byK[:0]
}

// Record appends one observation. byK must have MaxK entries.
func (t *Tracker) Record(now float64, byK []float64) {
	start, grown := len(t.byK), cap(t.byK)
	t.byK = append(t.byK, byK...)
	end := len(t.byK)
	if cap(t.byK) != grown {
		// The values moved to a bigger array: point the earlier samples at
		// it, so the old one is garbage rather than pinned by them.
		off := 0
		for i := range t.samples {
			n := len(t.samples[i].ByK)
			t.samples[i].ByK = t.byK[off : off+n : off+n]
			off += n
		}
	}
	t.samples = append(t.samples, Sample{T: now, ByK: t.byK[start:end:end]})
}

// Samples returns the recorded series. It aliases the tracker's storage
// until the next Reset or Restore.
func (t *Tracker) Samples() []Sample { return t.samples }

// CopySamples returns a deep copy of Samples, in two allocations.
func (t *Tracker) CopySamples() []Sample {
	out := make([]Sample, len(t.samples))
	flat := append([]float64(nil), t.byK...)
	for i, s := range t.samples {
		n := len(s.ByK)
		out[i] = Sample{T: s.T, ByK: flat[:n:n]}
		flat = flat[n:]
	}
	return out
}

// Restore replaces the recorded series with a deep copy of samples, as
// previously returned by Samples. The checkpoint subsystem uses it to
// carry the coverage history across a snapshot/resume boundary.
func (t *Tracker) Restore(samples []Sample) {
	t.samples, t.byK = t.samples[:0], t.byK[:0]
	for _, s := range samples {
		t.Record(s.T, s.ByK)
	}
}

// Lifetime returns the K-coverage lifetime: the time of the first sample
// of the first run of `sustain` consecutive samples below threshold
// ("the time duration from the beginning until K-coverage drops below a
// threshold value"). The sustain parameter tolerates transient dips that
// Adaptive Sleeping repairs; sustain <= 1 means the first crossing ends
// the lifetime. If coverage never drops, the last sample time is
// returned with ok == false. The rule is metrics.FirstBelow, applied to
// the K-coverage column.
func (t *Tracker) Lifetime(k int, threshold float64, sustain int) (lifetime float64, ok bool) {
	if k < 1 || k > t.MaxK {
		return 0, false
	}
	return metrics.FirstBelow(len(t.samples), func(i int) metrics.Point {
		return metrics.Point{T: t.samples[i].T, V: t.samples[i].ByK[k-1]}
	}, threshold, sustain)
}
