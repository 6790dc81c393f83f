package connectivity

import (
	"math"
	"testing"

	"peas/internal/geom"
	"peas/internal/stats"
)

func TestSeparationBoundValue(t *testing.T) {
	if math.Abs(SeparationBound-(1+math.Sqrt(5))) > 1e-15 {
		t.Errorf("bound = %v", SeparationBound)
	}
}

func TestAnalyzeEmptyAndSingle(t *testing.T) {
	f := geom.NewField(10, 10)
	a := Analyze(f, nil, 5)
	if a.Working != 0 || a.Connected || a.Components != 0 {
		t.Errorf("empty: %+v", a)
	}
	a = Analyze(f, []geom.Point{{X: 1, Y: 1}}, 5)
	if a.Working != 1 || !a.Connected || a.Components != 1 {
		t.Errorf("single: %+v", a)
	}
}

func TestAnalyzeLine(t *testing.T) {
	f := geom.NewField(20, 20)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 6, Y: 0}, {X: 9, Y: 0}}
	a := Analyze(f, pts, 3)
	if !a.Connected || a.Components != 1 {
		t.Errorf("chain should be connected: %+v", a)
	}
	if math.Abs(a.MinPairDist-3) > 1e-9 || math.Abs(a.MaxNearestDist-3) > 1e-9 {
		t.Errorf("distances: %+v", a)
	}
	// Shrink the range below the spacing: all isolated.
	a = Analyze(f, pts, 2.9)
	if a.Components != 4 || a.Connected {
		t.Errorf("isolated nodes: %+v", a)
	}
	// Nearest-neighbor distances must still be found beyond the range.
	if math.Abs(a.MaxNearestDist-3) > 1e-9 {
		t.Errorf("fallback nearest: %+v", a)
	}
}

func TestAnalyzeTwoClusters(t *testing.T) {
	f := geom.NewField(40, 40)
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 2, Y: 0}, // cluster A
		{X: 30, Y: 30}, {X: 32, Y: 30}, // cluster B
	}
	a := Analyze(f, pts, 5)
	if a.Components != 2 || a.Connected {
		t.Errorf("two clusters: %+v", a)
	}
}

// TestPathExists checks reachability alone: ShortestPath's ok result.
func TestPathExists(t *testing.T) {
	f := geom.NewField(50, 50)
	src, dst := geom.Point{X: 0, Y: 0}, geom.Point{X: 40, Y: 0}
	pathExists := func(relays []geom.Point, a, b geom.Point) bool {
		_, ok := ShortestPath(f, relays, a, b, 10)
		return ok
	}
	// Direct: too far without relays.
	if pathExists(nil, src, dst) {
		t.Error("no relays: path should not exist")
	}
	if !pathExists(nil, src, geom.Point{X: 5, Y: 0}) {
		t.Error("direct reach failed")
	}
	// A relay chain at 8 m spacing bridges the gap.
	var relays []geom.Point
	for x := 8.0; x < 40; x += 8 {
		relays = append(relays, geom.Point{X: x, Y: 0})
	}
	if !pathExists(relays, src, dst) {
		t.Error("relay chain: path should exist")
	}
	// Break the chain.
	broken := append([]geom.Point(nil), relays...)
	broken = append(broken[:2], broken[3:]...) // remove the relay at x=24
	if pathExists(broken, src, dst) {
		t.Error("broken chain: path should not exist")
	}
}

func TestShortestPathHops(t *testing.T) {
	f := geom.NewField(50, 50)
	src, dst := geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0}
	relays := []geom.Point{
		{X: 10, Y: 0}, {X: 20, Y: 0}, // short chain
		{X: 5, Y: 5}, {X: 12, Y: 5}, {X: 19, Y: 5}, {X: 26, Y: 5}, // longer detour
	}
	path, ok := ShortestPath(f, relays, src, dst, 10)
	if !ok {
		t.Fatal("path should exist")
	}
	if len(path) != 2 || path[0] != 0 || path[1] != 1 {
		t.Errorf("path = %v, want the 2-hop chain [0 1]", path)
	}
	// Direct reach returns an empty path.
	path, ok = ShortestPath(f, relays, src, geom.Point{X: 9, Y: 0}, 10)
	if !ok || path != nil {
		t.Errorf("direct: (%v, %v)", path, ok)
	}
	// Unreachable.
	if _, ok := ShortestPath(f, nil, src, dst, 10); ok {
		t.Error("no relays: should fail")
	}
}

// reachable floods from a over relays without a spatial index: the
// independent answer ShortestPath's ok is held to.
func reachable(relays []geom.Point, a, b geom.Point, rt float64) bool {
	if a.Dist(b) <= rt {
		return true
	}
	seen := make([]bool, len(relays))
	frontier := []geom.Point{a}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for i, p := range relays {
			if seen[i] || cur.Dist(p) > rt {
				continue
			}
			if p.Dist(b) <= rt {
				return true
			}
			seen[i] = true
			frontier = append(frontier, p)
		}
	}
	return false
}

func TestShortestPathHopsAreValid(t *testing.T) {
	f := geom.NewField(50, 50)
	rng := stats.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		relays := geom.UniformDeploy(f, 60, rng)
		src := geom.Point{X: 1, Y: 1}
		dst := geom.Point{X: 49, Y: 49}
		path, ok := ShortestPath(f, relays, src, dst, 10)
		if want := reachable(relays, src, dst, 10); ok != want {
			t.Fatalf("trial %d: ShortestPath ok=%v, index-free flood says %v", trial, ok, want)
		}
		if !ok {
			continue
		}
		prev := src
		for _, i := range path {
			if prev.Dist(relays[i]) > 10+1e-9 {
				t.Fatalf("hop too long: %v -> %v", prev, relays[i])
			}
			prev = relays[i]
		}
		if prev.Dist(dst) > 10+1e-9 {
			t.Fatalf("last hop too long: %v -> %v", prev, dst)
		}
	}
}
