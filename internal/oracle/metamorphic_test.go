package oracle

// Metamorphic tests: relations the paper implies must hold between runs
// whose configurations differ only in a symmetry the physics cannot see.
// Node IDs are bookkeeping, so relabeling the deployment must change
// nothing observable; space is homogeneous, so rigidly translating the
// deployment must change nothing either; and independent seeds must
// yield statistically unrelated runs.

import (
	"math"
	"testing"

	"peas/internal/energy"
	"peas/internal/experiment"
	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/stats"
)

// metaResult is everything one metamorphic run exposes for comparison.
type metaResult struct {
	stats *experiment.RunStats
	// series is the (t, working, byK...) sample log, compared exactly.
	series [][]float64
	// batteries maps each node's physical position to its final battery
	// state, compared bit-exactly.
	batteries map[geom.Point]energy.BatteryState
}

func runMeta(t *testing.T, ncfg node.Config, failures float64, horizon float64) *metaResult {
	t.Helper()
	out := &metaResult{batteries: make(map[geom.Point]energy.BatteryState)}
	cfg := experiment.RunConfig{
		Network:          ncfg,
		FailuresPer5000s: failures,
		Horizon:          horizon,
		OnSample: func(tm float64, working int, byK []float64) {
			row := append([]float64{tm, float64(working)}, byK...)
			out.series = append(out.series, row)
		},
		OnFinish: func(net *node.Network) {
			for _, n := range net.Nodes {
				out.batteries[n.Pos()] = n.Battery().Snapshot()
			}
		},
	}
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.stats = res
	return out
}

// compareMeta asserts two runs are observationally identical up to the
// applied symmetry: integer-derived aggregates and per-sample series
// bit-identical, per-physical-node batteries bit-identical (keyed
// through mapPos), and ID-order floating-point sums within one part in
// 1e9 (their addition order is the only thing the symmetry changes).
func compareMeta(t *testing.T, a, b *metaResult, mapPos func(geom.Point) geom.Point) {
	t.Helper()
	if a.stats.Wakeups != b.stats.Wakeups {
		t.Errorf("wakeups: %d vs %d", a.stats.Wakeups, b.stats.Wakeups)
	}
	if a.stats.MeanWorking != b.stats.MeanWorking {
		t.Errorf("mean working: %v vs %v", a.stats.MeanWorking, b.stats.MeanWorking)
	}
	if a.stats.AllDeadAt != b.stats.AllDeadAt {
		t.Errorf("all-dead-at: %v vs %v", a.stats.AllDeadAt, b.stats.AllDeadAt)
	}
	if a.stats.CoverageLifetime != b.stats.CoverageLifetime {
		t.Errorf("coverage lifetimes: %v vs %v", a.stats.CoverageLifetime, b.stats.CoverageLifetime)
	}
	if a.stats.InitialCoverage != b.stats.InitialCoverage {
		t.Errorf("initial coverage: %v vs %v", a.stats.InitialCoverage, b.stats.InitialCoverage)
	}
	if a.stats.FailuresInjected != b.stats.FailuresInjected {
		t.Errorf("failures: %d vs %d", a.stats.FailuresInjected, b.stats.FailuresInjected)
	}
	if a.stats.PacketsSent != b.stats.PacketsSent ||
		a.stats.PacketsDelivered != b.stats.PacketsDelivered ||
		a.stats.PacketsCollided != b.stats.PacketsCollided {
		t.Errorf("packets: %d/%d/%d vs %d/%d/%d",
			a.stats.PacketsSent, a.stats.PacketsDelivered, a.stats.PacketsCollided,
			b.stats.PacketsSent, b.stats.PacketsDelivered, b.stats.PacketsCollided)
	}
	relTol := func(x, y float64) bool {
		scale := math.Max(math.Abs(x), 1)
		return math.Abs(x-y) <= 1e-9*scale
	}
	if !relTol(a.stats.TotalEnergy, b.stats.TotalEnergy) {
		t.Errorf("total energy: %v vs %v", a.stats.TotalEnergy, b.stats.TotalEnergy)
	}
	if !relTol(a.stats.ProtocolEnergy, b.stats.ProtocolEnergy) {
		t.Errorf("protocol energy: %v vs %v", a.stats.ProtocolEnergy, b.stats.ProtocolEnergy)
	}

	if len(a.series) != len(b.series) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.series), len(b.series))
	}
	for i := range a.series {
		ra, rb := a.series[i], b.series[i]
		if len(ra) != len(rb) {
			t.Fatalf("sample %d widths differ", i)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("sample %d field %d: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}

	if len(a.batteries) != len(b.batteries) {
		t.Fatalf("battery counts differ: %d vs %d", len(a.batteries), len(b.batteries))
	}
	for pos, sa := range a.batteries {
		sb, ok := b.batteries[mapPos(pos)]
		if !ok {
			t.Fatalf("no counterpart for node at %v", pos)
		}
		if sa != sb {
			t.Errorf("battery at %v differs: %+v vs %+v", pos, sa, sb)
		}
	}
}

// TestRelabelingInvariance permutes node IDs — same physical ensemble of
// (position, RNG seed) pairs, reversed assignment order — and requires
// every observable to match, bit-for-bit where the computation is
// order-independent. Initial charges are pinned equal (charge draws
// attach to IDs) and failures/forwarding are off (the injector picks
// victims by ID and the sink workload is position-anchored to IDs).
func TestRelabelingInvariance(t *testing.T) {
	const n = 80
	field := geom.NewField(50, 50)
	rng := stats.NewRNG(123)
	positions := geom.UniformDeploy(field, n, rng)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	base := node.DefaultConfig(n, 99)
	base.Positions = positions
	base.NodeSeeds = seeds
	base.InitialEnergyMin = 57
	base.InitialEnergyMax = 57

	perm := base
	perm.Positions = make([]geom.Point, n)
	perm.NodeSeeds = make([]int64, n)
	for i := 0; i < n; i++ {
		perm.Positions[i] = positions[n-1-i]
		perm.NodeSeeds[i] = seeds[n-1-i]
	}

	a := runMeta(t, base, 0, 2500)
	b := runMeta(t, perm, 0, 2500)
	compareMeta(t, a, b, func(p geom.Point) geom.Point { return p })
}

// TestTranslationInvariance rigidly translates the deployment by
// (128, 128) m inside a fixed 220x220 m field. Positions are snapped to
// a 1/8 m grid so the translated coordinates, and therefore every
// pairwise distance, are exact in float64; the shift is a multiple of
// the 1 m coverage-lattice spacing so the covered-point counts translate
// exactly too. The cluster keeps a full sensing range (10 m) clear of
// the field boundary in both placements, so no coverage circle is
// clipped on one side only. IDs are untouched, so ID-keyed randomness
// (charges, node seeds, failure victims) is identical across the pair
// and failures can stay on.
func TestTranslationInvariance(t *testing.T) {
	const (
		n     = 80
		shift = 128.0
	)
	field := geom.NewField(220, 220)
	rng := stats.NewRNG(321)
	posA := make([]geom.Point, n)
	for i := range posA {
		posA[i] = geom.Point{
			X: 16 + math.Round(rng.Uniform(0, 50)*8)/8,
			Y: 16 + math.Round(rng.Uniform(0, 50)*8)/8,
		}
	}
	posB := make([]geom.Point, n)
	for i := range posB {
		posB[i] = geom.Point{X: posA[i].X + shift, Y: posA[i].Y + shift}
	}

	base := node.DefaultConfig(n, 99)
	base.Field = field
	base.Positions = posA
	moved := base
	moved.Positions = posB

	a := runMeta(t, base, 10, 2500)
	b := runMeta(t, moved, 10, 2500)
	compareMeta(t, a, b, func(p geom.Point) geom.Point {
		return geom.Point{X: p.X + shift, Y: p.Y + shift}
	})
}

// TestSeedIndependence runs adjacent seeds and requires the working-node
// series to be uncorrelated: the increments of the two series must not
// track each other. With ~100 samples the null standard error of the
// correlation is ~0.1, so the 0.5 threshold is a >4σ test that still
// can't flake into a false pass for genuinely coupled streams.
func TestSeedIndependence(t *testing.T) {
	collect := func(seed int64) []float64 {
		var series []float64
		cfg := experiment.RunConfig{
			Network: node.DefaultConfig(80, seed),
			Horizon: 2500,
			OnSample: func(tm float64, working int, byK []float64) {
				series = append(series, float64(working))
			},
		}
		if _, err := experiment.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return series
	}
	sa := collect(1000)
	sb := collect(1001)
	if len(sa) != len(sb) || len(sa) < 50 {
		t.Fatalf("series lengths %d vs %d", len(sa), len(sb))
	}
	// Drop the boot transient: the deterministic 0 -> steady-state ramp
	// is common to every run and would dominate the correlation.
	sa, sb = sa[20:], sb[20:]
	identical := true
	for i := range sa {
		if sa[i] != sb[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("different seeds produced identical working series")
	}
	diff := func(xs []float64) []float64 {
		out := make([]float64, len(xs)-1)
		for i := range out {
			out[i] = xs[i+1] - xs[i]
		}
		return out
	}
	if r := stats.PearsonR(diff(sa), diff(sb)); math.Abs(r) > 0.5 {
		t.Errorf("seed streams correlate: r=%v", r)
	}
}
