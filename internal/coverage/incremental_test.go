package coverage

import (
	"testing"

	"peas/internal/geom"
	"peas/internal/stats"
)

// legacyFraction computes the reference answer from scratch: the working
// subset of sensors pushed through Lattice.Fraction.
func legacyFraction(lat *Lattice, sensors []geom.Point, working []bool, radius float64, maxK int) []float64 {
	var subset []geom.Point
	for i, w := range working {
		if w {
			subset = append(subset, sensors[i])
		}
	}
	return lat.Fraction(subset, radius, maxK)
}

func workingSubset(sensors []geom.Point, working []bool) []geom.Point {
	var subset []geom.Point
	for i, w := range working {
		if w {
			subset = append(subset, sensors[i])
		}
	}
	return subset
}

// TestIncrementalChurnDifferential drives the incremental engine through
// a long randomized wake/sleep/death/revive sequence (pinned seeds) and
// asserts, at every step, bit-identical fractions, covered masks and
// working counts versus the from-scratch legacy path.
func TestIncrementalChurnDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := stats.NewRNG(seed)
		field := geom.NewField(50, 50)
		lat := NewLattice(field, 1)
		const (
			n      = 120
			radius = 10.0
			maxK   = 5
			steps  = 400
		)
		sensors := geom.UniformDeploy(field, n, rng)
		inc := NewIncremental(lat, sensors, radius, maxK)
		working := make([]bool, n)

		buf := make([]float64, 0, maxK)
		mask := make([]bool, 0, lat.Len())
		check := func(step int) {
			t.Helper()
			want := legacyFraction(lat, sensors, working, radius, maxK)
			buf = inc.FractionInto(buf)
			for k := range want {
				if buf[k] != want[k] {
					t.Fatalf("seed %d step %d: K=%d incremental %v != legacy %v",
						seed, step, k+1, buf[k], want[k])
				}
			}
			wantMask := coveredMask(lat, workingSubset(sensors, working), radius)
			mask = inc.CoveredMaskInto(mask)
			for i := range wantMask {
				if mask[i] != wantMask[i] {
					t.Fatalf("seed %d step %d: point %d covered mismatch", seed, step, i)
				}
			}
			count := 0
			for _, w := range working {
				if w {
					count++
				}
			}
			if inc.WorkingCount() != count {
				t.Fatalf("seed %d step %d: WorkingCount %d != %d",
					seed, step, inc.WorkingCount(), count)
			}
			for k := 1; k <= maxK; k++ {
				if got := inc.FractionK(k); got != want[k-1] {
					t.Fatalf("seed %d step %d: FractionK(%d) %v != %v",
						seed, step, k, got, want[k-1])
				}
			}
		}

		check(-1) // empty working set
		for step := 0; step < steps; step++ {
			i := rng.Intn(n)
			switch rng.Intn(5) {
			case 0, 1: // wake
				working[i] = true
				inc.Set(i, true)
			case 2, 3: // sleep or die
				working[i] = false
				inc.Set(i, false)
			case 4: // redundant transition: Set must be idempotent
				inc.Set(i, working[i])
			}
			check(step)
		}

		// A mid-churn rebuild (the checkpoint-resume path) must land on the
		// same state the incremental transitions maintained.
		inc.Rebuild(func(i int) bool { return working[i] })
		check(steps)
	}
}

// TestIncrementalFootprintsMatchStamping checks the precomputed row spans:
// every footprint must be exactly the point set within the radius, found
// by testing every lattice point — which is what makes stopping a row's
// scan at its first miss exact. The fractional spacing and the sensors on
// and past the field edge exercise the accumulated coordinates and the
// clamped windows.
func TestIncrementalFootprintsMatchStamping(t *testing.T) {
	rng := stats.NewRNG(3)
	field := geom.NewField(30, 20)
	for _, spacing := range []float64{1, 0.7} {
		lat := NewLattice(field, spacing)
		const radius = 7.0
		sensors := append(geom.UniformDeploy(field, 25, rng),
			geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 20}, geom.Point{X: -3, Y: 10}, geom.Point{X: 15, Y: 26})
		inc := NewIncremental(lat, sensors, radius, 3)
		r2 := radius * radius
		for i, s := range sensors {
			got := make([]bool, lat.Len())
			n := 0 // the footprint's length, summed over its spans
			for _, sp := range inc.spans[inc.offs[i]:inc.offs[i+1]] {
				n += int(sp.n)
				for p := sp.base; p < sp.base+sp.n; p++ {
					got[p] = true
				}
			}
			want := 0
			for p := range got {
				in := lat.Point(p).Dist2(s) <= r2
				if in {
					want++
				}
				if got[p] != in {
					t.Fatalf("spacing %v sensor %d at %v: point %d %v in footprint %v, within radius %v",
						spacing, i, s, p, lat.Point(p), got[p], in)
				}
			}
			if n != want {
				t.Errorf("spacing %v sensor %d: footprint spans hold %d points, brute force %d", spacing, i, n, want)
			}
		}
	}
}

// TestIncrementalEdgeCases covers degenerate radii and maxK clamping.
func TestIncrementalEdgeCases(t *testing.T) {
	field := geom.NewField(10, 10)
	lat := NewLattice(field, 1)
	sensors := []geom.Point{{X: 5, Y: 5}}

	// Negative radius: no footprint, fractions stay zero.
	inc := NewIncremental(lat, sensors, -1, 2)
	inc.Set(0, true)
	for _, f := range inc.Fraction() {
		if f != 0 {
			t.Errorf("negative radius: nonzero fraction %v", f)
		}
	}

	// Zero radius covers exactly the coincident lattice point.
	inc = NewIncremental(lat, sensors, 0, 1)
	inc.Set(0, true)
	want := lat.Fraction(sensors, 0, 1)
	if got := inc.Fraction(); got[0] != want[0] {
		t.Errorf("zero radius: incremental %v != legacy %v", got[0], want[0])
	}

	// maxK < 1 clamps to 1, mirroring Lattice.Fraction.
	inc = NewIncremental(lat, sensors, 3, 0)
	if inc.MaxK() != 1 {
		t.Errorf("maxK 0 should clamp to 1, got %d", inc.MaxK())
	}

	// FractionK beyond maxK is a programming error, not a silent clamp.
	defer func() {
		if recover() == nil {
			t.Error("FractionK beyond maxK did not panic")
		}
	}()
	inc.FractionK(2)
}

// TestIncrementalDeepOverlap exercises counts far above maxK: many
// coincident sensors churning must keep the clamped histogram consistent.
func TestIncrementalDeepOverlap(t *testing.T) {
	field := geom.NewField(10, 10)
	lat := NewLattice(field, 1)
	const n = 20
	sensors := make([]geom.Point, n)
	for i := range sensors {
		sensors[i] = geom.Point{X: 5, Y: 5}
	}
	const maxK = 3
	inc := NewIncremental(lat, sensors, 4, maxK)
	working := make([]bool, n)
	rng := stats.NewRNG(11)
	for step := 0; step < 200; step++ {
		i := rng.Intn(n)
		working[i] = !working[i]
		inc.Set(i, working[i])
		want := legacyFraction(lat, sensors, working, 4, maxK)
		got := inc.FractionInto(nil)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("step %d K=%d: %v != %v", step, k+1, got[k], want[k])
			}
		}
	}
}
