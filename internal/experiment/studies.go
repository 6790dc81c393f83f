package experiment

import (
	"fmt"
	"math"
	"sort"

	"peas/internal/baseline"
	"peas/internal/connectivity"
	"peas/internal/coverage"
	"peas/internal/failure"
	"peas/internal/node"
	"peas/internal/stats"
)

// estimatorStudy reproduces the §2.2.1 analysis of the aggregate-rate
// estimator: for a Poisson probing process of known rate λ, the k-interval
// estimator λ̂ = k/(t-t0) should be within ~1% of λ with >99% confidence
// once k >= 16.
func estimatorStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§2.2.1: rate-estimator accuracy vs. window size k (true λ = 0.02/s)",
		Headers: []string{"k", "mean-rel-err", "p99-rel-err", "windows"},
	}
	const (
		trueRate = 0.02
		trials   = 2000
	)
	rng := stats.NewRNG(e.Seed)
	for _, k := range []int{4, 8, 16, 32, 64} {
		errs := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			est := newPoissonEstimate(rng, trueRate, k)
			errs = append(errs, math.Abs(est-trueRate)/trueRate)
		}
		s := stats.Summarize(errs)
		t.AddRow(fmt.Sprint(k), ffloat(s.Mean), ffloat(percentile(errs, 0.99)),
			fmt.Sprint(trials))
	}
	t.AddNote("paper: k >= 16 gives <1%% error in the measured mean interval " +
		"with >99%% confidence; k = 32 chosen for margin. The relative error " +
		"of one λ̂ window scales as 1/sqrt(k) (CLT).")
	return t, nil
}

// newPoissonEstimate draws k exponential inter-arrival intervals at rate
// lambda and returns one estimator window's λ̂.
func newPoissonEstimate(rng *stats.RNG, lambda float64, k int) float64 {
	var elapsed float64
	for i := 0; i < k; i++ {
		elapsed += rng.Exp(lambda)
	}
	return float64(k) / elapsed
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// connectivityStudy checks the §3 claims on PEAS equilibria: working-node
// separation, the (1+√5)Rp nearest-neighbor bound for interior nodes, and
// connectivity under Rt >= (1+√5)Rp.
func connectivityStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§3: working-set geometry and asymptotic connectivity",
		Headers: []string{"seed", "working", "min-pair(m)", "max-nearest(m)", "components@Rt=10"},
	}
	seeds := 5
	if e.Quick {
		seeds = 2
	}
	grid, err := runGrid(1, seeds, e.Parallel, func(_, s int) (connectivity.Analysis, error) {
		net, err := node.NewNetwork(node.DefaultConfig(480, derivedSeed(e.Seed, 200, s)))
		if err != nil {
			return connectivity.Analysis{}, err
		}
		net.Start()
		net.Run(400) // past the boot transient, before depletion
		return connectivity.Analyze(net.Field, net.WorkingPositions(), 10), nil
	})
	if err != nil {
		return nil, err
	}
	connectedRuns := 0
	for s, a := range grid[0] {
		if a.Connected {
			connectedRuns++
		}
		t.AddRow(fmt.Sprint(s), fmt.Sprint(a.Working),
			fmt.Sprintf("%.2f", a.MinPairDist), fmt.Sprintf("%.2f", a.MaxNearestDist),
			fmt.Sprint(a.Components))
	}
	bound := connectivity.SeparationBound * 3 // (1+√5)·Rp for Rp = 3
	t.AddNote("theory: nearest working neighbor within (1+√5)Rp = %.2f m for "+
		"interior nodes of a dense deployment; Rt = 10 m > %.2f m fails the "+
		"Theorem 3.1 premise only marginally (10 < 9.71 is false), so the "+
		"working set should be connected", bound, bound)
	t.AddNote("%d/%d runs fully connected at Rt = 10 m", connectedRuns, seeds)
	return t, nil
}

// gapRun is one seed's replacement-gap record under either scheme.
type gapRun struct {
	mean, max float64
	count     int
	lifetime  float64
}

// gapStudy compares monitoring-interruption gaps between PEAS's randomized
// wakeups and the synchronized-sleeping baseline (Figures 4-5): after a
// worker fails, how long until a replacement takes over?
func gapStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§2.1.1 (Figs. 4-5): replacement gaps, PEAS vs. synchronized sleeping",
		Headers: []string{"scheme", "mean-gap(s)", "max-gap(s)", "gaps", "cov-lifetime(s)"},
	}
	schemes := []string{"PEAS", "SyncSleep"}
	seeds := 3
	if e.Quick {
		seeds = 1
	}
	grid, err := runGrid(len(schemes), seeds, e.Parallel, func(scheme, s int) (gapRun, error) {
		seed := derivedSeed(e.Seed, 300+scheme, s)
		if scheme == 0 {
			return peasGapRun(seed)
		}
		cfg := baseline.DefaultConfig(480, seed)
		cfg.FailureRate = failure.RatePer5000s(32)
		cfg.Horizon = 12000
		res := baseline.SyncSleep(cfg)
		return gapRun{res.Gaps.MeanDuration, res.Gaps.MaxDuration, res.Gaps.Count, res.CoverageLifetime}, nil
	})
	if err != nil {
		return nil, err
	}
	for si, scheme := range schemes {
		var means []float64
		var max, lifetime float64
		count := 0
		for _, g := range grid[si] {
			if g.count > 0 {
				means = append(means, g.mean)
				if g.max > max {
					max = g.max
				}
				count += g.count
			}
			lifetime += g.lifetime
		}
		t.AddRow(scheme, ffloat(stats.Mean(means)), ffloat(max),
			fmt.Sprint(count), fsec(lifetime/float64(seeds)))
	}
	t.AddNote("PEAS gaps are bounded by the (adaptive) probing interval "+
		"≈1/λd = %.0f s; synchronized sleeping leaves cells dark until the "+
		"next round boundary (round length %.0f s)", 1/0.02, 500.0)
	return t, nil
}

// peasGapRun measures replacement gaps in a PEAS run: for a lattice of
// observation points, a gap is a maximal interval during which a
// previously covered point has no working node within sensing range while
// alive nodes remain nearby.
func peasGapRun(seed int64) (gapRun, error) {
	cfg := node.DefaultConfig(480, seed)
	net, err := node.NewNetwork(cfg)
	if err != nil {
		return gapRun{}, err
	}
	inj := newInjector(net, 32)
	lattice := coverage.NewLattice(cfg.Field, 5) // 11x11 observation points
	// The 1 Hz observation loop runs 12000 times per seed; the incremental
	// engine makes each tick O(observation points) reads instead of a full
	// working-disk restamp plus a spatial-index rebuild.
	inc := attachIncremental(net, lattice, 1)
	tracker := coverage.NewTracker(1)

	const (
		horizon  = 12000
		interval = 1.0
	)
	// gapStart[i] > 0 while observation point i is uncovered.
	gapStart := make([]float64, lattice.Len())
	covered := make([]bool, lattice.Len())
	var gaps []float64
	byK := make([]float64, 0, 1)
	mask := make([]bool, 0, lattice.Len())
	net.Engine.NewTicker(interval, func() {
		now := net.Engine.Now()
		byK = inc.FractionInto(byK)
		tracker.Record(now, byK)
		mask = inc.CoveredMaskInto(mask)
		for i, cov := range mask {
			switch {
			case cov && gapStart[i] > 0:
				gaps = append(gaps, now-gapStart[i])
				gapStart[i] = 0
				covered[i] = true
			case cov:
				covered[i] = true
			case !cov && covered[i] && gapStart[i] == 0:
				// Only count interruptions of previously covered points
				// while the network is still young enough to recover.
				gapStart[i] = now
			}
		}
	})
	net.Start()
	inj.Start()
	net.Run(horizon)

	var max float64
	for _, g := range gaps {
		if g > max {
			max = g
		}
	}
	lifetime, _ := tracker.Lifetime(1, LifetimeThreshold, CoverageSustain)
	return gapRun{stats.Mean(gaps), max, len(gaps), lifetime}, nil
}

// lossStudy reproduces the §4 loss-compensation experiment: with 1 vs 3
// PROBE transmissions per wakeup under increasing packet-loss rates, how
// many redundant workers appear?
func lossStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§4: multi-PROBE loss compensation (480 nodes, t=600 s)",
		Headers: []string{"loss-rate", "workers(1 probe)", "workers(3 probes)", "overhead(3)"},
	}
	losses := []float64{0, 0.05, 0.10, 0.20}
	// Case 2i+j is loss rate i with 1 (j=0) or 3 (j=1) PROBEs per wakeup.
	pts, err := sweep(2*len(losses), 3, e.Parallel, func(c, r int) RunConfig {
		p := [2]int{1, 3}[c%2]
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 400+p, r))
		cfg.Radio.LossRate = losses[c/2]
		cfg.Protocol.NumProbes = p
		return RunConfig{Network: cfg, Horizon: 600}
	})
	if err != nil {
		return nil, err
	}
	for i, loss := range losses {
		one, three := pts[2*i], pts[2*i+1]
		t.AddRow(fmt.Sprintf("%.0f%%", 100*loss), fmt.Sprintf("%.1f", one.MeanWorking),
			fmt.Sprintf("%.1f", three.MeanWorking), fpct(three.OverheadRatio))
	}
	t.AddNote("paper: three PROBEs work well against loss rates up to 10%%, " +
		"with energy overhead still below 1%%")
	return t, nil
}

// turnoffStudy measures the §4 redundant-worker turn-off extension: the
// boot-up race promotes some extra workers; with the extension enabled,
// overlapping workers resolve and the working set shrinks toward the
// packing bound.
func turnoffStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§4: redundant-worker turn-off extension (480 nodes, t=1200 s)",
		Headers: []string{"turnoff", "mean-working", "min-pair-dist(m)", "turnoffs"},
	}
	type result struct{ working, minPair, turnoffs float64 }
	cases := []bool{false, true}
	grid, err := runGrid(len(cases), 3, e.Parallel, func(c, r int) (result, error) {
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 500, r))
		cfg.Protocol.TurnoffEnabled = cases[c]
		net, err := node.NewNetwork(cfg)
		if err != nil {
			return result{}, err
		}
		net.Start()
		net.Run(1200)
		res := result{
			working: float64(net.WorkingCount()),
			minPair: connectivity.Analyze(net.Field, net.WorkingPositions(), 10).MinPairDist,
		}
		for _, n := range net.Nodes {
			res.turnoffs += float64(n.Protocol().Stats().Turnoffs)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for c, enabled := range cases {
		t.AddRow(fmt.Sprint(enabled),
			fmt.Sprintf("%.1f", meanOver(grid[c], func(r result) float64 { return r.working })),
			fmt.Sprintf("%.2f", meanOver(grid[c], func(r result) float64 { return r.minPair })),
			fmt.Sprintf("%.1f", meanOver(grid[c], func(r result) float64 { return r.turnoffs })))
	}
	t.AddNote("the extension lets the longer-working of two mutually audible " +
		"workers turn the younger off, pushing pair separation toward Rp = 3 m")
	return t, nil
}
