package experiment

import (
	"fmt"
	"math"

	"peas/internal/connectivity"
	"peas/internal/coverage"
	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/stats"
)

// distributionStudy explores §4's "Distribution of deployed nodes":
// uniform, even (grid with jitter) and clustered deployments of the same
// population, comparing coverage lifetime. The paper argues "evenly
// deployed nodes will work longer than those deployed irregularly".
func distributionStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§4: deployment distribution vs. coverage lifetime (480 nodes)",
		Headers: []string{"distribution", "1-cov life(s)", "4-cov life(s)", "mean-working"},
	}
	cases := []struct {
		name string
		gen  func(field geom.Field, n int, rng *stats.RNG) []geom.Point
	}{
		{"grid+jitter", func(f geom.Field, n int, rng *stats.RNG) []geom.Point {
			return geom.GridDeploy(f, n, 1.0, rng)
		}},
		{"uniform", geom.UniformDeploy},
		{"clustered", func(f geom.Field, n int, rng *stats.RNG) []geom.Point {
			return geom.ClusterDeploy(f, n, 8, 6, rng)
		}},
	}
	pts, err := sweep(len(cases), 3, e.Parallel, func(c, r int) RunConfig {
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 600+c, r))
		cfg.Positions = cases[c].gen(cfg.Field, cfg.N, stats.NewRNG(cfg.Seed))
		return RunConfig{Network: cfg, FailuresPer5000s: BaseFailuresPer5000}
	})
	if err != nil {
		return nil, err
	}
	for c, pt := range pts {
		t.AddRow(cases[c].name, fsec(pt.CoverageLifetime[0]), fsec(pt.CoverageLifetime[3]),
			fmt.Sprintf("%.1f", pt.MeanWorking))
	}
	t.AddNote("§4: uneven deployments die earlier because sparse regions " +
		"exhaust their local redundancy first; even deployment works longest")
	return t, nil
}

// fixedPowerStudy reproduces §4's fixed-transmission-power mode: every
// frame is transmitted at full power (10 m) and receivers filter by
// signal-strength threshold equivalent to Rp. The working density and
// coverage should match the variable-power mode; the energy overhead is
// higher because every PROBE/REPLY burns full transmit power.
func fixedPowerStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§4: variable vs. fixed transmission power (480 nodes, t=1200 s)",
		Headers: []string{"power mode", "mean-working", "1-cov@1200s", "overhead"},
	}
	modes := []string{"variable", "fixed+threshold"}
	grid, err := runGrid(len(modes), 3, e.Parallel, func(c, r int) (*RunStats, error) {
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 700, r))
		cfg.Radio.FixedPower = c == 1
		return Run(RunConfig{Network: cfg, Horizon: 1200})
	})
	if err != nil {
		return nil, err
	}
	for c, runs := range grid {
		t.AddRow(modes[c],
			fmt.Sprintf("%.1f", meanOver(runs, func(rs *RunStats) float64 { return rs.MeanWorking })),
			ffloat(meanOver(runs, func(rs *RunStats) float64 { return rs.InitialCoverage[0] })),
			fpct(meanOver(runs, func(rs *RunStats) float64 { return rs.OverheadRatio })))
	}
	t.AddNote("the threshold filter preserves the probing semantics, so the " +
		"working set is equivalent; fixed power pays more energy per frame")
	return t, nil
}

// rpSweepStudy varies the probing range Rp and checks both the working
// density tradeoff (§2.1: Rp sets the redundancy) and the Theorem 3.1
// connectivity condition Rt >= (1+√5)·Rp: with Rt = 10 m the condition
// holds up to Rp ≈ 3.09 m; larger probing ranges risk a partitioned
// working set.
func rpSweepStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§2.1/§3: probing range Rp vs. density and connectivity (480 nodes, t=600 s)",
		Headers: []string{"Rp(m)", "(1+√5)Rp", "cond holds", "mean-working", "components@Rt=10", "4-cov"},
	}
	type result struct{ working, components, cov4 float64 }
	rps := []float64{2, 2.5, 3, 4, 5, 6}
	grid, err := runGrid(len(rps), 3, e.Parallel, func(c, r int) (result, error) {
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 800, r))
		cfg.Protocol.ProbingRange = rps[c]
		net, err := node.NewNetwork(cfg)
		if err != nil {
			return result{}, err
		}
		net.Start()
		net.Run(600)
		working := net.WorkingPositions()
		a := connectivity.Analyze(net.Field, working, 10)
		// The lattice is built per run, not shared across the grid:
		// Lattice.FractionK stamps into the lattice's own scratch counts,
		// so concurrent cells must not evaluate on one instance.
		cov4 := coverage.NewLattice(cfg.Field, 2).FractionK(working, SensingRange, 4)
		return result{float64(a.Working), float64(a.Components), cov4}, nil
	})
	if err != nil {
		return nil, err
	}
	for c, rp := range rps {
		bound := connectivity.SeparationBound * rp
		t.AddRow(fmt.Sprintf("%.1f", rp), fmt.Sprintf("%.2f", bound), fmt.Sprint(bound <= 10),
			fmt.Sprintf("%.1f", meanOver(grid[c], func(r result) float64 { return r.working })),
			fmt.Sprintf("%.1f", meanOver(grid[c], func(r result) float64 { return r.components })),
			ffloat(meanOver(grid[c], func(r result) float64 { return r.cov4 })))
	}
	t.AddNote("larger Rp thins the working set: fewer workers, less " +
		"redundancy, and beyond the Theorem 3.1 bound the working graph can " +
		"partition even though sleepers would bridge the gaps")
	return t, nil
}

// bootStudy reproduces §2.1's boot-up discussion: "the initial value of λ
// decides how quickly the network acquires enough number of working nodes
// during the boot-up phase". For each λ0 it measures the time until the
// application's density requirement — 90% 4-coverage, as in §5.2 — is
// first met.
func bootStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§2.1: initial probing rate λ0 vs. boot-up time (480 nodes)",
		Headers: []string{"λ0 (1/s)", "t to 90% 4-coverage (s)", "workers @ t"},
	}
	// The lattice depends only on the (shared) field, so every λ0 case
	// reuses one instead of rebuilding it per configuration.
	lattice := coverage.NewLattice(node.DefaultConfig(480, 0).Field, 2)
	for _, lambda0 := range []float64{0.012, 0.05, 0.1, 0.3} {
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 900, 0))
		cfg.Protocol.InitialRate = lambda0
		net, err := node.NewNetwork(cfg)
		if err != nil {
			return nil, err
		}
		// The 5 s poll loop reads the incremental engine: working-set
		// transitions maintain the counts, so each poll is O(maxK).
		inc := attachIncremental(net, lattice, 4)
		bootT := math.NaN()
		workers := 0
		net.Engine.NewTicker(5, func() {
			if !math.IsNaN(bootT) {
				return
			}
			if inc.FractionK(4) >= 0.9 {
				bootT = net.Engine.Now()
				workers = inc.WorkingCount()
				net.Engine.Stop()
			}
		})
		net.Start()
		net.Run(2000)
		cell := "never"
		if !math.IsNaN(bootT) {
			cell = fsec(bootT)
		}
		t.AddRow(ffloat(lambda0), cell, fmt.Sprint(workers))
	}
	t.AddNote("paper: λ0 = 0.012 wakes 50%% of nodes within the first minute; " +
		"the evaluation uses λ0 = 0.1 'so that the number of working nodes " +
		"quickly stabilizes'")
	return t, nil
}

// densityStudy checks Lemma 3.1's premise empirically: with n nodes
// uniformly deployed on an l x l field split into c x c cells (c = Rp),
// how many cells are empty? The lemma requires c²n ≈ k·l²·ln(l) with
// k > 2 for asymptotically-all-cells-occupied.
func densityStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§3 (Lemma 3.1): empty Rp-cells vs. deployment size (50x50 m, c = 3 m)",
		Headers: []string{"nodes", "k = c²n/(l²·ln l)", "empty cells", "of"},
	}
	const (
		l = 50.0
		c = 3.0
	)
	cols := int(math.Ceil(l / c))
	rng := stats.NewRNG(e.Seed)
	for _, n := range []int{160, 320, 480, 640, 800, 1600} {
		k := c * c * float64(n) / (l * l * math.Log(l))
		// Average empty-cell count over a few deployments, all drawn from
		// the one stream (so not a grid of independently seeded cells).
		const deployments = 5
		empty := 0
		for d := 0; d < deployments; d++ {
			pts := geom.UniformDeploy(geom.NewField(l, l), n, rng)
			occupied := make([]bool, cols*cols)
			for _, p := range pts {
				ci := int(p.X / c)
				ri := int(p.Y / c)
				if ci >= cols {
					ci = cols - 1
				}
				if ri >= cols {
					ri = cols - 1
				}
				occupied[ri*cols+ci] = true
			}
			for _, o := range occupied {
				if !o {
					empty++
				}
			}
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.2f", k),
			fmt.Sprintf("%.1f", float64(empty)/deployments), fmt.Sprint(cols*cols))
	}
	t.AddNote("Lemma 3.1: E[empty cells] -> 0 when k > d = 2; at this field " +
		"size the expected count is already near zero once k approaches 2")
	return t, nil
}
