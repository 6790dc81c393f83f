package geom3

import (
	"math"
	"testing"

	"peas/internal/stats"
)

func TestDist(t *testing.T) {
	a, b := Point{0, 0, 0}, Point{1, 2, 2}
	if got := a.Dist(b); math.Abs(got-3) > 1e-12 {
		t.Errorf("dist = %v, want 3", got)
	}
	if a.Dist(a) != 0 {
		t.Error("self distance")
	}
}

func TestBox(t *testing.T) {
	b := NewBox(10, 20, 30)
	if b != (Box{Width: 10, Height: 20, Depth: 30}) {
		t.Errorf("box %+v", b)
	}
	if !b.Contains(Point{10, 20, 30}) || !b.Contains(Point{0, 0, 0}) {
		t.Error("corners must be contained")
	}
	if b.Contains(Point{10.1, 0, 0}) || b.Contains(Point{0, 0, -0.1}) {
		t.Error("outside points contained")
	}
}

func TestUniformDeploy(t *testing.T) {
	b := NewBox(20, 20, 20)
	pts := UniformDeploy(b, 5000, stats.NewRNG(1))
	var cx, cy, cz float64
	for _, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("point %v outside box", p)
		}
		cx += p.X
		cy += p.Y
		cz += p.Z
	}
	n := float64(len(pts))
	for _, c := range []float64{cx / n, cy / n, cz / n} {
		if math.Abs(c-10) > 0.5 {
			t.Errorf("centroid coordinate %v far from 10", c)
		}
	}
}
