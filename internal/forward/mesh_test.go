package forward

import (
	"testing"

	"peas/internal/connectivity"
	"peas/internal/geom"
	"peas/internal/stats"
)

// disjointPaths is the reference the router is held to: greedy
// node-disjoint paths over connectivity.ShortestPath, rebuilding a spatial
// index per search — what the harness ran for every report before the
// router. It returns up to width paths from a to b as indices into relays:
// shortest path first, then shortest among the remaining relays, and so
// on. A direct a->b reach yields one empty path.
func disjointPaths(field geom.Field, relays []geom.Point, a, b geom.Point, rt float64, width int) [][]int {
	if width < 1 {
		width = 1
	}
	var paths [][]int
	available := make([]geom.Point, len(relays))
	copy(available, relays)
	// index map from the shrinking "available" view back to relays.
	backing := make([]int, len(relays))
	for i := range backing {
		backing[i] = i
	}
	for len(paths) < width {
		path, ok := connectivity.ShortestPath(field, available, a, b, rt)
		if !ok {
			break
		}
		if path == nil {
			// Direct reach: one hop, no relays; wider meshes add nothing.
			paths = append(paths, nil)
			break
		}
		orig := make([]int, len(path))
		for i, idx := range path {
			orig[i] = backing[idx]
		}
		paths = append(paths, orig)

		// Remove the used relays for node-disjointness.
		used := make(map[int]bool, len(path))
		for _, idx := range path {
			used[idx] = true
		}
		var nextAvail []geom.Point
		var nextBack []int
		for i := range available {
			if !used[i] {
				nextAvail = append(nextAvail, available[i])
				nextBack = append(nextBack, backing[i])
			}
		}
		available = nextAvail
		backing = nextBack
	}
	return paths
}

// routerPaths answers the same question with the router, every relay
// working, so node ids are indices into relays.
func routerPaths(field geom.Field, relays []geom.Point, a, b geom.Point, rt float64, width int) [][]int {
	r := newRouter(field, relays, a, b, rt)
	r.rebuild(func(int) bool { return true })
	var paths [][]int
	for _, p := range r.paths(width) {
		var path []int
		for _, id := range p {
			path = append(path, int(id))
		}
		paths = append(paths, path)
	}
	return paths
}

// pathFinders are the two implementations every TestDisjointPaths* case
// runs against.
var pathFinders = []struct {
	name string
	find func(field geom.Field, relays []geom.Point, a, b geom.Point, rt float64, width int) [][]int
}{
	{"reference", disjointPaths},
	{"router", routerPaths},
}

func TestDisjointPathsBasics(t *testing.T) {
	f := geom.NewField(50, 50)
	src, dst := geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0}
	// Two parallel relay chains.
	relays := []geom.Point{
		{X: 10, Y: 0}, {X: 20, Y: 0}, // chain A
		{X: 8, Y: 6}, {X: 16, Y: 6}, {X: 24, Y: 6}, // chain B
	}
	for _, impl := range pathFinders {
		paths := impl.find(f, relays, src, dst, 10, 2)
		if len(paths) != 2 {
			t.Fatalf("%s: got %d paths, want 2", impl.name, len(paths))
		}
		// Node-disjointness.
		seen := map[int]bool{}
		for _, p := range paths {
			for _, i := range p {
				if seen[i] {
					t.Fatalf("%s: relay %d used by two paths: %v", impl.name, i, paths)
				}
				seen[i] = true
			}
		}
		// First path is the shortest (chain A: 2 relays).
		if len(paths[0]) != 2 {
			t.Errorf("%s: first path has %d relays, want 2", impl.name, len(paths[0]))
		}
	}
}

func TestDisjointPathsWidthExceedsAvailable(t *testing.T) {
	f := geom.NewField(50, 50)
	src, dst := geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0}
	relays := []geom.Point{{X: 10, Y: 0}, {X: 20, Y: 0}} // one chain only
	for _, impl := range pathFinders {
		if paths := impl.find(f, relays, src, dst, 10, 5); len(paths) != 1 {
			t.Fatalf("%s: got %d paths, want 1", impl.name, len(paths))
		}
	}
}

func TestDisjointPathsDirectReach(t *testing.T) {
	f := geom.NewField(50, 50)
	src, dst := geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 0}
	for _, impl := range pathFinders {
		paths := impl.find(f, []geom.Point{{X: 2, Y: 0}}, src, dst, 10, 3)
		if len(paths) != 1 || paths[0] != nil {
			t.Fatalf("%s: direct reach: %v", impl.name, paths)
		}
	}
}

func TestDisjointPathsUnreachable(t *testing.T) {
	f := geom.NewField(50, 50)
	for _, impl := range pathFinders {
		paths := impl.find(f, nil, geom.Point{X: 0, Y: 0}, geom.Point{X: 40, Y: 0}, 10, 2)
		if len(paths) != 0 {
			t.Fatalf("%s: unreachable: %v", impl.name, paths)
		}
	}
}

func TestPathSurvives(t *testing.T) {
	rng := stats.NewRNG(1)
	if !pathSurvives(100, 0, rng) {
		t.Error("zero loss must always survive")
	}
	// 5 hops at 50% loss: survival = 0.5^5 ≈ 3.1%.
	const trials = 20000
	survived := 0
	for i := 0; i < trials; i++ {
		if pathSurvives(5, 0.5, rng) {
			survived++
		}
	}
	got := float64(survived) / trials
	if got < 0.02 || got > 0.045 {
		t.Errorf("5-hop survival at 50%% loss = %v, want ≈ 0.031", got)
	}
}

// TestMeshWidthImprovesDelivery is the GRAB robustness property: under
// lossy hops, widening the mesh raises the delivery ratio at the cost of
// extra relayed energy.
func TestMeshWidthImprovesDelivery(t *testing.T) {
	ratioAt := func(width int) float64 {
		net := testNet(t, 480, 31)
		cfg := DefaultConfig(net.Field)
		cfg.MeshWidth = width
		cfg.HopLossRate = 0.15
		h := NewHarness(cfg, net)
		h.Start()
		net.Start()
		net.Run(2000)
		return h.Ratio().Value()
	}
	single := ratioAt(1)
	wide := ratioAt(3)
	t.Logf("delivery ratio at 15%% hop loss: width1=%v width3=%v", single, wide)
	// Per-path survival over ~8 hops at 15% loss is ≈0.27, so one path
	// delivers ~27% and three disjoint paths ≈ 1-(1-0.27)³ ≈ 0.6.
	if wide < single+0.15 {
		t.Errorf("mesh width did not improve delivery enough: %v -> %v", single, wide)
	}
}
