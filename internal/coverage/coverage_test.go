package coverage

import (
	"math"
	"testing"
	"testing/quick"

	"peas/internal/geom"
	"peas/internal/stats"
)

func TestLatticeSize(t *testing.T) {
	l := NewLattice(geom.NewField(50, 50), 1)
	if l.Len() != 51*51 {
		t.Errorf("lattice size %d, want %d", l.Len(), 51*51)
	}
	if NewLattice(geom.NewField(10, 10), 0).Len() != 11*11 {
		t.Error("zero spacing should default to 1 m")
	}
}

func TestFractionNoSensors(t *testing.T) {
	l := NewLattice(geom.NewField(10, 10), 1)
	got := l.Fraction(nil, 5, 3)
	for k, f := range got {
		if f != 0 {
			t.Errorf("%d-coverage with no sensors = %v", k+1, f)
		}
	}
}

func TestFractionFullCoverage(t *testing.T) {
	// A sensor at the center of a small field with a huge radius covers
	// everything at K=1.
	l := NewLattice(geom.NewField(10, 10), 1)
	got := l.Fraction([]geom.Point{{X: 5, Y: 5}}, 100, 2)
	if got[0] != 1 {
		t.Errorf("1-coverage = %v, want 1", got[0])
	}
	if got[1] != 0 {
		t.Errorf("2-coverage with one sensor = %v, want 0", got[1])
	}
}

func TestFractionKnownGeometry(t *testing.T) {
	// One sensor in the corner with radius 10 on a 10x10 field covers a
	// quarter disc: π·100/4 of 100 m² ≈ 78.5% of the area.
	l := NewLattice(geom.NewField(10, 10), 0.25)
	got := l.FractionK([]geom.Point{{X: 0, Y: 0}}, 10, 1)
	want := math.Pi / 4
	if math.Abs(got-want) > 0.02 {
		t.Errorf("corner disc coverage = %v, want ≈ %v", got, want)
	}
}

func TestFractionMonotoneInK(t *testing.T) {
	f := geom.NewField(20, 20)
	l := NewLattice(f, 1)
	err := quick.Check(func(seed int64) bool {
		rng := stats.NewRNG(seed)
		sensors := geom.UniformDeploy(f, 30, rng)
		byK := l.Fraction(sensors, 6, 5)
		for k := 1; k < len(byK); k++ {
			if byK[k] > byK[k-1]+1e-12 {
				return false // K-coverage must not increase with K
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

// coveredMask returns, for each sample point of l, whether at least one
// of the given sensors covers it with the given radius: one range query
// per point, the reference the incremental mask is held to.
func coveredMask(l *Lattice, sensors []geom.Point, radius float64) []bool {
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

func TestCoveredMaskMatchesFraction(t *testing.T) {
	f := geom.NewField(15, 15)
	l := NewLattice(f, 1)
	sensors := geom.UniformDeploy(f, 10, stats.NewRNG(3))
	mask := coveredMask(l, sensors, 5)
	covered := 0
	for _, c := range mask {
		if c {
			covered++
		}
	}
	frac := l.FractionK(sensors, 5, 1)
	if got := float64(covered) / float64(l.Len()); math.Abs(got-frac) > 1e-12 {
		t.Errorf("mask fraction %v != FractionK %v", got, frac)
	}
}

func TestTrackerLifetime(t *testing.T) {
	tr := NewTracker(2)
	// 1-coverage stays high; 2-coverage drops at t=100 and stays down.
	steps := []struct {
		t  float64
		k1 float64
		k2 float64
	}{
		{0, 1, 1}, {25, 1, 0.95}, {50, 0.99, 0.92},
		{75, 0.99, 0.85}, {100, 0.98, 0.85}, {125, 0.98, 0.80},
	}
	for _, s := range steps {
		tr.Record(s.t, []float64{s.k1, s.k2})
	}
	// Sustain 1: first crossing.
	lt, dropped := tr.Lifetime(2, 0.9, 1)
	if !dropped || lt != 75 {
		t.Errorf("k=2 sustain=1: (%v, %v), want (75, true)", lt, dropped)
	}
	// Sustain 3: needs three consecutive low samples; they start at 75.
	lt, dropped = tr.Lifetime(2, 0.9, 3)
	if !dropped || lt != 75 {
		t.Errorf("k=2 sustain=3: (%v, %v), want (75, true)", lt, dropped)
	}
	// 1-coverage never drops: report last sample, not dropped.
	lt, dropped = tr.Lifetime(1, 0.9, 1)
	if dropped || lt != 125 {
		t.Errorf("k=1: (%v, %v), want (125, false)", lt, dropped)
	}
}

func TestTrackerTransientDipTolerated(t *testing.T) {
	tr := NewTracker(1)
	// A single-sample dip (a worker died; a sleeper replaced it) must
	// not end the lifetime at sustain=3.
	values := []float64{1, 1, 0.85, 1, 1, 0.85, 0.85, 0.85}
	for i, v := range values {
		tr.Record(float64(i)*25, []float64{v})
	}
	lt, dropped := tr.Lifetime(1, 0.9, 3)
	if !dropped || lt != 125 {
		t.Errorf("lifetime (%v, %v), want (125, true)", lt, dropped)
	}
}

func TestTrackerEdgeCases(t *testing.T) {
	tr := NewTracker(0) // clamps to 1
	if tr.MaxK != 1 {
		t.Errorf("maxK = %d", tr.MaxK)
	}
	if _, ok := tr.Lifetime(1, 0.9, 1); ok {
		t.Error("empty tracker should not report a drop")
	}
	tr.Record(0, []float64{0.5})
	if _, ok := tr.Lifetime(5, 0.9, 1); ok {
		t.Error("out-of-range K should not report")
	}
	lt, ok := tr.Lifetime(1, 0.9, 1)
	if !ok || lt != 0 {
		t.Errorf("immediate drop: (%v, %v)", lt, ok)
	}
}

func TestTrackerRecordCopies(t *testing.T) {
	tr := NewTracker(1)
	byK := []float64{1}
	tr.Record(0, byK)
	byK[0] = 0
	if tr.Samples()[0].ByK[0] != 1 {
		t.Error("tracker aliased the caller's slice")
	}
}
