package geom

import (
	"math"
	"testing"
	"testing/quick"

	"peas/internal/stats"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same", Point{1, 1}, Point{1, 1}, 0},
		{"unit-x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist = %v, want %v", got, tc.want)
			}
			if got := tc.p.Dist2(tc.q); math.Abs(got-tc.want*tc.want) > 1e-9 {
				t.Errorf("Dist2 = %v, want %v", got, tc.want*tc.want)
			}
		})
	}
}

func TestDistProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Symmetry.
	if err := quick.Check(func(ax, ay, bx, by float64) bool {
		if bad(ax) || bad(ay) || bad(bx) || bad(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}, cfg); err != nil {
		t.Error("symmetry:", err)
	}
	// Triangle inequality.
	if err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		if bad(ax) || bad(ay) || bad(bx) || bad(by) || bad(cx) || bad(cy) {
			return true
		}
		a, b, c := Point{ax, ay}, Point{bx, by}, Point{cx, cy}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}, cfg); err != nil {
		t.Error("triangle inequality:", err)
	}
}

func bad(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 }

func TestFieldContainsClamp(t *testing.T) {
	f := NewField(50, 30)
	if a := f.Width * f.Height; a != 1500 {
		t.Errorf("area = %v", a)
	}
	if !f.Contains(Point{0, 0}) || !f.Contains(Point{50, 30}) {
		t.Error("corners must be contained")
	}
	if f.Contains(Point{50.1, 0}) || f.Contains(Point{-0.1, 5}) {
		t.Error("outside points must not be contained")
	}
	if got := f.Clamp(Point{60, -5}); got != (Point{50, 0}) {
		t.Errorf("clamp = %v", got)
	}
}

func TestUniformDeploy(t *testing.T) {
	f := NewField(50, 50)
	rng := stats.NewRNG(1)
	pts := UniformDeploy(f, 2000, rng)
	if len(pts) != 2000 {
		t.Fatalf("got %d points", len(pts))
	}
	var cx, cy float64
	for _, p := range pts {
		if !f.Contains(p) {
			t.Fatalf("point %v outside field", p)
		}
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(pts))
	cy /= float64(len(pts))
	if math.Abs(cx-25) > 1.5 || math.Abs(cy-25) > 1.5 {
		t.Errorf("centroid (%v, %v) far from field center", cx, cy)
	}
}

func TestGridDeploy(t *testing.T) {
	f := NewField(50, 50)
	pts := GridDeploy(f, 100, 0, stats.NewRNG(1))
	if len(pts) != 100 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !f.Contains(p) {
			t.Fatalf("point %v outside field", p)
		}
	}
	// Without jitter, points form a regular lattice: min pairwise
	// distance equals the lattice pitch (5 m for 100 points on 50x50).
	min := math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d < min {
				min = d
			}
		}
	}
	if math.Abs(min-5) > 1e-9 {
		t.Errorf("lattice pitch = %v, want 5", min)
	}
	if GridDeploy(f, 0, 0, stats.NewRNG(1)) != nil {
		t.Error("zero nodes should deploy nil")
	}
}

func TestGridDeployJitterStaysInField(t *testing.T) {
	f := NewField(20, 20)
	pts := GridDeploy(f, 64, 3, stats.NewRNG(2))
	for _, p := range pts {
		if !f.Contains(p) {
			t.Fatalf("jittered point %v escaped the field", p)
		}
	}
}
