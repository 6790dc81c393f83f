package coverage

import (
	"slices"
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

// scanFootprints is the footprint kernel Reset replaced, kept as its
// reference: it tests every column of each row's candidate window, and a
// row's run ends at its first miss.
func scanFootprints(lat *Lattice, sensors []geom.Point, radius float64) (offs []int32, spans []span) {
	offs = make([]int32, len(sensors)+1)
	r2 := radius * radius
	for i, s := range sensors {
		c0, c1, r0, r1 := lat.window(s, radius)
		for row := r0; row <= r1; row++ {
			first, n := 0, 0
			for col := c0; col <= c1; col++ {
				if lat.at(col, row).Dist2(s) <= r2 {
					if n == 0 {
						first = col
					}
					n++
				} else if n > 0 {
					break
				}
			}
			if n > 0 {
				spans = append(spans, span{base: int32(row*len(lat.xs) + first), n: int32(n)})
			}
		}
		offs[i+1] = int32(len(spans))
	}
	return offs, spans
}

// TestFootprintsMatchScan holds Reset's footprints to the full window scan,
// span for span: random sensors, sensors on lattice points, sensors exactly
// the radius from a lattice point (along a row, along a column and on a
// 3-4-5 diagonal), and sensors on and past the field edge, at spacings of
// 1, 2 and 5 m and a fractional one, and at radii that are and are not
// multiples of the spacing.
func TestFootprintsMatchScan(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, field := range []geom.Field{geom.NewField(50, 50), geom.NewField(33.3, 27.1)} {
		for _, spacing := range []float64{1, 2, 5, 0.7} {
			lat := NewLattice(field, spacing)
			for _, radius := range []float64{10, 7.5, 3, 0} {
				sensors := append(geom.UniformDeploy(field, 200, rng),
					geom.Point{X: 0, Y: 0}, geom.Point{X: field.Width, Y: field.Height},
					geom.Point{X: -3, Y: 10}, geom.Point{X: 15, Y: field.Height + 6})
				for row := 0; row < len(lat.ys); row += 3 {
					for col := 0; col < len(lat.xs); col += 2 {
						x, y := lat.xs[col], lat.ys[row]
						sensors = append(sensors, geom.Point{X: x, Y: y},
							geom.Point{X: x + radius, Y: y}, geom.Point{X: x - radius, Y: y},
							geom.Point{X: x, Y: y + radius}, geom.Point{X: x, Y: y - radius},
							geom.Point{X: x + 0.6*radius, Y: y + 0.8*radius}, geom.Point{X: x - 0.8*radius, Y: y - 0.6*radius})
					}
				}
				inc := NewIncremental(lat, sensors, radius, 3)
				offs, spans := scanFootprints(lat, sensors, radius)
				if !slices.Equal(inc.offs, offs) || !slices.Equal(inc.spans, spans) {
					for i := range sensors {
						got, want := inc.spans[inc.offs[i]:inc.offs[i+1]], spans[offs[i]:offs[i+1]]
						if !slices.Equal(got, want) {
							t.Fatalf("field %v spacing %v radius %v sensor %d at %v: spans %v, scan %v",
								field, spacing, radius, i, sensors[i], got, want)
						}
					}
					t.Fatalf("field %v spacing %v radius %v: offsets differ", field, spacing, radius)
				}
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
