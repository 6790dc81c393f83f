package forward

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"peas/internal/chaos"
	"peas/internal/core"
	"peas/internal/failure"
	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/stats"
)

// has reports whether the router holds node id as working.
func (r *router) has(id int) bool {
	b := r.rank[id]
	return r.working[b>>6]&(1<<(b&63)) != 0
}

// referencePaths is what the harness computed for every report before the
// router: disjointPaths over the working positions listed in ascending
// node order, mapped back to node ids.
func referencePaths(field geom.Field, pos []geom.Point, working func(id int) bool,
	src, dst geom.Point, rt float64, width int) [][]int32 {
	var ids []int32
	var relays []geom.Point
	for id, p := range pos {
		if working(id) {
			ids = append(ids, int32(id))
			relays = append(relays, p)
		}
	}
	var out [][]int32
	for _, path := range disjointPaths(field, relays, src, dst, rt, width) {
		var mapped []int32
		for _, i := range path {
			mapped = append(mapped, ids[i])
		}
		out = append(out, mapped)
	}
	return out
}

// samePaths compares element for element; a direct reach is one empty
// path on both sides, whether nil or zero-length.
func samePaths(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRouterMatchesReferenceUnderChurn is the bit-exact differential: on
// integer coordinates (so hops of exactly rt occur: offsets (6,8), (10,0)
// ...) thousands of seeded flips, and after each one the router's paths at
// widths 1-3 equal the reference's. The flip bias wanders so the set
// passes through empty, source-isolated, disconnected and dense phases.
func TestRouterMatchesReferenceUnderChurn(t *testing.T) {
	field := geom.NewField(50, 50)
	const rt = 10.0
	cases := []struct {
		name     string
		src, dst geom.Point
		flips    int
	}{
		{"corners", geom.Point{X: 1, Y: 1}, geom.Point{X: 49, Y: 49}, 3000},
		{"on-lattice", geom.Point{X: 0, Y: 0}, geom.Point{X: 50, Y: 30}, 3000},
		{"direct-reach", geom.Point{X: 20, Y: 20}, geom.Point{X: 26, Y: 28}, 200},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRNG(int64(100 + ci))
			pos := make([]geom.Point, 300)
			for i := range pos {
				// Includes the field's far edges, where bucketOf clamps.
				pos[i] = geom.Point{X: float64(rng.Intn(51)), Y: float64(rng.Intn(51))}
			}
			r := newRouter(field, pos, tc.src, tc.dst, rt)
			working := make([]bool, len(pos))
			isWorking := func(id int) bool { return working[id] }
			var empty, isolated, noPath, full, exactHop int
			check := func(step int) {
				for width := 1; width <= 3; width++ {
					got := r.paths(width)
					want := referencePaths(field, pos, isWorking, tc.src, tc.dst, rt, width)
					if !samePaths(got, want) {
						t.Fatalf("step %d width %d: router %v, reference %v", step, width, got, want)
					}
					if width < 3 {
						continue
					}
					// Tally the regimes the last comparison covered.
					n, near := 0, 0
					for id, w := range working {
						if w {
							n++
							if tc.src.Dist(pos[id]) <= rt {
								near++
							}
						}
					}
					switch {
					case n == 0:
						empty++
					case near == 0:
						isolated++
					case len(got) == 0:
						noPath++
					case len(got) == 3:
						full++
					}
					for _, p := range got {
						for i := 1; i < len(p); i++ {
							if pos[p[i-1]].Dist2(pos[p[i]]) == rt*rt {
								exactHop++
							}
						}
					}
				}
			}
			check(-1) // empty set
			for step := 0; step < tc.flips; step++ {
				// The share of flips that turn a node on is a triangle wave,
				// so the density drifts through the critical region where
				// the set is connected for one flip and cut by the next.
				phase := float64(step%1000) / 1000
				on := 0.02 + 1.2*math.Min(phase, 1-phase)
				id := rng.Intn(len(pos))
				working[id] = rng.Float64() < on
				r.set(id, working[id])
				check(step)
				if step%700 == 699 {
					// The checkpoint-restore path must land on the state
					// the flips maintained.
					r.rebuild(isWorking)
					check(step)
				}
			}
			for id := range pos {
				if r.has(id) != working[id] {
					t.Fatalf("node %d: router membership %v, want %v", id, r.has(id), working[id])
				}
			}
			t.Logf("empty=%d source-isolated=%d no-path=%d three-paths=%d exact-rt hops=%d",
				empty, isolated, noPath, full, exactHop)
			if tc.name == "direct-reach" {
				return
			}
			if empty == 0 || isolated == 0 || noPath == 0 || full == 0 || exactHop == 0 {
				t.Error("churn missed a regime the differential is meant to cover")
			}
		})
	}
}

// TestRouterDegenerateRange pins the two configurations geom.NewIndex and
// Index.Within2 special-case: a non-positive hop range.
func TestRouterDegenerateRange(t *testing.T) {
	field := geom.NewField(20, 20)
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}
	src, dst := geom.Point{X: 0, Y: 0}, geom.Point{X: 3, Y: 0}
	all := func(int) bool { return true }
	for _, rt := range []float64{0, -0.4, -1} {
		r := newRouter(field, pos, src, dst, rt)
		r.rebuild(all)
		got := r.paths(2)
		want := referencePaths(field, pos, all, src, dst, rt, 2)
		if !samePaths(got, want) {
			t.Errorf("rt=%v: router %v, reference %v", rt, got, want)
		}
	}
}

// lattice is every point (i·step, j·step) of field, corners and far edges
// included, with each point of the first row placed twice.
func lattice(field geom.Field, step float64) []geom.Point {
	var pos []geom.Point
	for y := 0.0; y <= field.Height; y += step {
		for x := 0.0; x <= field.Width; x += step {
			pos = append(pos, geom.Point{X: x, Y: y})
			if y == 0 {
				pos = append(pos, geom.Point{X: x, Y: y})
			}
		}
	}
	return pos
}

// TestReachRowIsWithin2 holds every reach row, the source's included, to
// Within2 over the index the reference builds: the row's set bits in
// ascending order, mapped back to node ids, are exactly the points
// Within2 visits in the order it visits them, and the row's words
// strictly ascend. The geometries put points on cell boundaries, at hops
// of exactly rt, on the field's far edges (x = Width, y = Height), on top
// of each other, and under an rt that does not divide the field, and
// spread the nodes over several bitset words.
func TestReachRowIsWithin2(t *testing.T) {
	scatter := func(field geom.Field, n int, seed int64) []geom.Point {
		rng := stats.NewRNG(seed)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: float64(rng.Intn(int(field.Width) + 1)), Y: float64(rng.Intn(int(field.Height) + 1))}
		}
		return pos
	}
	wide := geom.NewField(100, 60)
	square := geom.NewField(50, 50)
	cases := []struct {
		name  string
		field geom.Field
		pos   []geom.Point
		src   geom.Point
		rt    float64
	}{
		{"lattice", wide, lattice(wide, 10), geom.Point{X: 30, Y: 20}, 10},
		{"lattice-far-corner-source", wide, lattice(wide, 10), geom.Point{X: 100, Y: 60}, 10},
		{"integer-scatter", square, scatter(square, 300, 1), geom.Point{X: 1, Y: 1}, 10},
		{"rt-not-dividing", square, scatter(square, 300, 2), geom.Point{X: 50, Y: 0}, 7},
		{"rt-fractional", wide, lattice(wide, 10), geom.Point{X: 0, Y: 60}, 10.5},
		{"rt-zero", wide, lattice(wide, 10), geom.Point{X: 40, Y: 0}, 0},
		{"rt-negative", square, scatter(square, 100, 3), geom.Point{X: 10, Y: 10}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRouter(tc.field, tc.pos, tc.src, geom.Point{}, tc.rt)
			idx := geom.NewIndex(tc.field, tc.pos, tc.rt)
			n := len(tc.pos)
			if len(r.starts) != n+2 {
				t.Fatalf("%d row bounds for %d nodes and the source", len(r.starts), n)
			}
			found := 0
			for k := 0; k <= n; k++ {
				center := tc.src
				if k < n {
					center = tc.pos[r.ids[k]]
				}
				var want []int32
				idx.Within2(center, tc.rt, func(i int, _ float64) { want = append(want, int32(i)) })
				var got []int32
				for j := r.starts[k]; j < r.starts[k+1]; j++ {
					if j > r.starts[k] && r.words[j] <= r.words[j-1] {
						t.Fatalf("row %d: word %d follows word %d", k, r.words[j], r.words[j-1])
					}
					for x := r.masks[j]; x != 0; x &= x - 1 {
						got = append(got, r.ids[int(r.words[j])<<6|bits.TrailingZeros64(x)])
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("row %d (center %v): bits give %v, Within2 visits %v", k, center, got, want)
				}
				found += len(got)
			}
			if tc.rt >= 0 && found <= n {
				t.Errorf("rows hold %d points for %d nodes: no node reached beyond itself", found, n)
			}
		})
	}
}

// TestRouterMatchesReferenceOnLattice is the churn differential on the
// lattice: every hop is exactly rt or longer than it, nodes sit on cell
// boundaries and the far edges, some share a position, and equal-length
// paths abound, so the tie-break order decides nearly every route. The
// source and sink are interior, so up to four disjoint paths exist.
func TestRouterMatchesReferenceOnLattice(t *testing.T) {
	field := geom.NewField(100, 60)
	const rt = 10.0
	pos := lattice(field, rt)
	src, dst := geom.Point{X: 20, Y: 30}, geom.Point{X: 80, Y: 30}
	r := newRouter(field, pos, src, dst, rt)
	working := make([]bool, len(pos))
	isWorking := func(id int) bool { return working[id] }
	rng := stats.NewRNG(41)
	var none, full int
	for step := 0; step < 3000; step++ {
		phase := float64(step%1000) / 1000
		id := rng.Intn(len(pos))
		working[id] = rng.Float64() < 0.1+1.6*math.Min(phase, 1-phase)
		r.set(id, working[id])
		if step%500 == 499 {
			r.rebuild(isWorking)
		}
		for width := 1; width <= 4; width++ {
			got := r.paths(width)
			want := referencePaths(field, pos, isWorking, src, dst, rt, width)
			if !samePaths(got, want) {
				t.Fatalf("step %d width %d: router %v, reference %v", step, width, got, want)
			}
			switch {
			case len(got) == 0:
				none++
			case len(got) == 4:
				full++
			}
		}
	}
	if none == 0 || full == 0 {
		t.Errorf("churn never reached both no path (%d) and four paths (%d)", none, full)
	}
}

// observe replaces h's report generator with one that first checks, at
// every report, that the router's membership equals a fresh Working()
// scan and that the route about to be used equals the reference's. Arm a
// ticker with it in place of the one h.Start or h.Resume creates.
func observe(t *testing.T, h *Harness, reports *int) func() {
	t.Helper()
	pos := h.router.pos
	isWorking := func(id int) bool { return h.net.Nodes[id].Working() }
	return func() {
		*reports++
		for id := range pos {
			if h.router.has(id) != isWorking(id) {
				t.Fatalf("t=%v node %d: router membership %v, Working() %v",
					h.net.Engine.Now(), id, h.router.has(id), isWorking(id))
			}
		}
		want := referencePaths(h.net.Field, pos, isWorking, h.cfg.Source, h.cfg.Sink,
			h.cfg.HopRange, h.cfg.MeshWidth)
		if got := h.route(); !samePaths(got, want) {
			t.Fatalf("t=%v report %d: route %v, reference %v", h.net.Engine.Now(), *reports, got, want)
		}
		h.generate()
	}
}

// liveRun is one forwarding run of the paper's failure scenario with every
// report observed.
type liveRun struct {
	net     *node.Network
	h       *Harness
	inj     *failure.Injector
	reports int
}

func newLiveRun(t *testing.T, n int, seed int64, width int) *liveRun {
	t.Helper()
	net := testNet(t, n, seed)
	cfg := DefaultConfig(net.Field)
	cfg.MeshWidth = width
	cfg.HopLossRate = 0.05
	lr := &liveRun{net: net, h: NewHarness(cfg, net)}
	lr.inj = failure.NewInjector(net, failure.RatePer5000s(26.66), stats.NewRNG(seed^0x5f3759df))
	return lr
}

func (lr *liveRun) start(t *testing.T) {
	lr.h.ticker = lr.net.Engine.NewTicker(lr.h.cfg.Period, observe(t, lr.h, &lr.reports))
	lr.net.Start()
	lr.inj.Start()
}

// outcome is everything a run leaves behind that the route decides.
func (lr *liveRun) outcome() (HarnessState, []node.NodeState) {
	return lr.h.Snapshot(), lr.net.SnapshotNodes()
}

// TestRouteMatchesReferenceOverLiveRun holds every report of a 480-node
// lifetime with failures at 26.66/5000 s to the reference, on the live
// path (hook-driven) and across a mid-run checkpoint restored into a
// fresh network (Resume-driven), whose end state must equal the
// uninterrupted run's.
func TestRouteMatchesReferenceOverLiveRun(t *testing.T) {
	const n, seed, horizon, cut = 480, 7, 30000.0, 9000.0
	for _, width := range []int{1, 3} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			direct := newLiveRun(t, n, seed, width)
			direct.start(t)
			direct.net.Run(horizon)
			if direct.reports < 2000 || direct.h.RouteRebuilds() == 0 ||
				direct.h.RouteRebuilds() >= direct.reports {
				t.Fatalf("%d reports, %d rebuilds: expected a long run with both reuse and rebuilds",
					direct.reports, direct.h.RouteRebuilds())
			}
			if direct.h.WorkingTransitions() < n {
				t.Errorf("only %d working-set flips over a full lifetime", direct.h.WorkingTransitions())
			}
			if gen, _ := direct.h.Ratio().Counts(); gen != direct.reports {
				t.Errorf("observer saw %d reports, ratio recorded %d", direct.reports, gen)
			}

			first := newLiveRun(t, n, seed, width)
			first.start(t)
			first.net.Run(cut)
			// Snapshots are taken at radio-quiescent boundaries.
			for first.net.Medium.InFlight() > 0 && first.net.Engine.Step() {
			}
			hs, nodes := first.outcome()
			medium, injSt := first.net.Medium.Snapshot(), first.inj.Snapshot()

			resumed := newLiveRun(t, n, seed, width)
			resumed.net.Engine.SetNow(first.net.Engine.Now())
			if err := resumed.net.RestoreNodes(nodes); err != nil {
				t.Fatal(err)
			}
			if err := resumed.net.Medium.Restore(medium); err != nil {
				t.Fatal(err)
			}
			resumed.h.Resume(hs)
			resumed.h.ticker.Stop()
			resumed.h.ticker = resumed.net.Engine.NewTickerAt(hs.NextGenAt, resumed.h.cfg.Period,
				observe(t, resumed.h, &resumed.reports))
			resumed.net.ResumeSchedule(nodes)
			resumed.inj.Resume(injSt)
			resumed.net.Run(horizon)

			if first.reports+resumed.reports != direct.reports {
				t.Errorf("reports: %d + %d across the checkpoint, %d direct",
					first.reports, resumed.reports, direct.reports)
			}
			wantH, wantN := direct.outcome()
			gotH, gotN := resumed.outcome()
			if !reflect.DeepEqual(gotH, wantH) {
				t.Error("harness state after checkpoint+resume differs from the uninterrupted run")
			}
			if !reflect.DeepEqual(gotN, wantN) {
				t.Error("node states after checkpoint+resume differ from the uninterrupted run")
			}
		})
	}
}

// TestRouteMatchesReferenceUnderCrashRestart covers the third path
// through SetState: nodes that crash and come back, from scratch (Revive)
// and from a protocol checkpoint (ReviveFrom).
func TestRouteMatchesReferenceUnderCrashRestart(t *testing.T) {
	const horizon = 6000.0
	plan := &chaos.Plan{Name: "crash-restart", Seed: 5, Events: []chaos.Event{
		{Class: chaos.FailRecover, At: 200, Until: 5500, Rate: 40, Downtime: 120},
	}}
	for at := 300.0; at < 5500; at += 130 {
		plan.Events = append(plan.Events, chaos.Event{
			Class: chaos.CrashRestart, At: at, Downtime: 45, Policy: "working", Count: 2})
	}
	net := testNet(t, 480, 11)
	ctl, err := chaos.AttachSim(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(DefaultConfig(net.Field), net)
	reports := 0
	h.ticker = net.Engine.NewTicker(h.cfg.Period, observe(t, h, &reports))
	net.Start()
	net.Run(horizon)
	restarted := ctl.Counters().Get(chaos.CtrRestarted)
	recovered := ctl.Counters().Get(chaos.CtrRecovered)
	t.Logf("%d reports, %d rebuilds, %d restarted, %d recovered",
		reports, h.RouteRebuilds(), restarted, recovered)
	if reports != int(horizon/10) || restarted < 20 || recovered < 10 {
		t.Errorf("plan under-exercised: %d reports, %d restarted, %d recovered", reports, restarted, recovered)
	}
}

// TestHopSeriesRecordsSurvivingPath: under mesh forwarding the hop series
// must hold the length of the first path that actually delivered the
// report, not of path 0 when path 0 lost it.
func TestHopSeriesRecordsSurvivingPath(t *testing.T) {
	// PEAS working sets are dense enough that the second disjoint path is
	// almost always as short as the first, so the deployment is laid out
	// by hand: a 2-relay chain and a 3-relay detour, all far enough apart
	// (> Rp) that every node ends up working.
	ncfg := node.DefaultConfig(5, 31)
	ncfg.Positions = []geom.Point{
		{X: 10, Y: 0}, {X: 20, Y: 0}, // chain A
		{X: 8, Y: 6}, {X: 16, Y: 6}, {X: 24, Y: 6}, // chain B
	}
	net, err := node.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net.Field)
	cfg.Source, cfg.Sink = geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0}
	cfg.MeshWidth = 2
	cfg.HopLossRate = 0.3
	h := NewHarness(cfg, net)
	// Replay the loss draws on a twin stream to learn which path survived.
	twin := stats.NewRNG(1)
	twin.Restore(h.rng.State())
	var want []float64
	rescued := 0
	h.ticker = net.Engine.NewTicker(cfg.Period, func() {
		hops := 0
		for i, p := range h.route() {
			if pathSurvives(len(p)+1, cfg.HopLossRate, twin) && hops == 0 {
				hops = len(p) + 1
				if i > 0 && len(p) != len(h.route()[0]) {
					rescued++
				}
			}
		}
		if hops > 0 {
			want = append(want, float64(hops))
		}
		h.generate()
	})
	net.Start()
	net.Run(3000)
	if rescued == 0 {
		t.Fatal("no report was delivered by a longer second path; the case is not exercised")
	}
	var got []float64
	for _, p := range h.hops.Points() {
		got = append(got, p.V)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hop series differs from the surviving paths' lengths (%d reports rescued by a longer path 1)", rescued)
	}
	t.Logf("%d deliveries, %d of them by a second path longer than the first", len(want), rescued)
}

// steadyRouter is the working set PEAS keeps on the paper's 50 × 50 field
// 500 s into a 480-node run (≈75 nodes), with the ids of its members.
func steadyRouter(tb testing.TB) (*router, []int) {
	tb.Helper()
	net, err := node.NewNetwork(node.DefaultConfig(480, 21))
	if err != nil {
		tb.Fatal(err)
	}
	net.Start()
	net.Run(500)
	h := NewHarness(DefaultConfig(net.Field), net)
	var working []int
	for id, n := range net.Nodes {
		if n.Working() {
			working = append(working, id)
		}
	}
	if got := h.router.paths(3); len(got) != 3 {
		tb.Fatalf("steady working set of %d yields %d disjoint paths, want 3", len(working), len(got))
	}
	return h.router, working
}

func TestRouterSteadyStateDoesNotAllocate(t *testing.T) {
	r, working := steadyRouter(t)
	for _, width := range []int{1, 3} {
		if a := testing.AllocsPerRun(100, func() { r.paths(width) }); a != 0 {
			t.Errorf("paths(%d): %v allocs per recompute, want 0", width, a)
		}
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		id := working[i%len(working)]
		r.set(id, false)
		r.set(id, true)
		i++
	}); a != 0 {
		t.Errorf("set: %v allocs per flip pair, want 0", a)
	}

	net := testNet(t, 480, 21)
	h := NewHarness(DefaultConfig(net.Field), net)
	h.Start()
	net.Start()
	net.Run(500)
	h.route()
	if h.stale {
		t.Fatal("route left the harness stale")
	}
	before := h.RouteRebuilds()
	if a := testing.AllocsPerRun(100, func() { h.route() }); a != 0 {
		t.Errorf("route with an unchanged working set: %v allocs, want 0", a)
	}
	if h.RouteRebuilds() != before {
		t.Error("route searched again although the working set had not changed")
	}
}

// syntheticRouter is a router over n nodes deployed uniformly on a square
// field at the paper's density (800 nodes per 50 × 50 m), source and sink
// in opposite corners as DefaultConfig places them, with a working set
// shaped like the one PEAS keeps: in id order, a node works unless a
// working node lies within Rp of it. Unlike steadyRouter it runs no
// protocol, so it builds in well under a second at n = 16 000.
func syntheticRouter(tb testing.TB, n int) *router {
	tb.Helper()
	side := 50 * math.Sqrt(float64(n)/800)
	field := geom.NewField(side, side)
	pos := geom.UniformDeploy(field, n, stats.NewRNG(int64(n)))
	cfg := DefaultConfig(field)
	r := newRouter(field, pos, cfg.Source, cfg.Sink, cfg.HopRange)
	const rp = core.DefaultProbingRange
	idx := geom.NewIndex(field, pos, rp)
	working := make([]bool, n)
	for id, p := range pos {
		working[id] = true
		idx.Within2(p, rp, func(i int, _ float64) {
			if i != id && working[i] {
				working[id] = false
			}
		})
	}
	r.rebuild(func(id int) bool { return working[id] })
	if got := r.paths(3); len(got) != 3 {
		tb.Fatalf("synthetic working set at n=%d yields %d disjoint paths, want 3", n, len(got))
	}
	return r
}

var benchSink [][]int32

// BenchmarkRouterPaths times one route search. The unprefixed cases run on
// a live 480-node network's working set; n800 and n16000 on synthetic ones
// at the density of 800 nodes on the paper's field, and report the reach
// table's bytes per deployed node (row bounds, words and masks).
func BenchmarkRouterPaths(b *testing.B) {
	routers := []struct {
		prefix string
		build  func(testing.TB) *router
	}{
		{"", func(tb testing.TB) *router { r, _ := steadyRouter(tb); return r }},
		{"n800/", func(tb testing.TB) *router { return syntheticRouter(tb, 800) }},
		{"n16000/", func(tb testing.TB) *router { return syntheticRouter(tb, 16000) }},
	}
	for _, rc := range routers {
		for _, width := range []int{1, 3} {
			b.Run(fmt.Sprintf("%swidth%d", rc.prefix, width), func(b *testing.B) {
				r := rc.build(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = r.paths(width)
				}
				if rc.prefix != "" {
					reach := 4*len(r.starts) + 4*len(r.words) + 8*len(r.masks)
					b.ReportMetric(float64(reach)/float64(len(r.pos)), "reach-B/node")
				}
			})
		}
	}
}

func BenchmarkRouterSet(b *testing.B) {
	r, working := steadyRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Even iterations take a node out, the next one puts it back.
		r.set(working[(i/2)%len(working)], i&1 == 1)
	}
}
