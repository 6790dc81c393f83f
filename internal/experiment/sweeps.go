package experiment

import (
	"fmt"

	"peas/internal/node"
	"peas/internal/stats"
)

// Options configures a sweep.
type Options struct {
	// Runs is the number of independent seeds averaged per sweep point
	// (paper: "the results are averaged over 5 simulation runs").
	Runs int
	// Seed is the root seed; run r of point i uses a derived seed.
	Seed int64
	// Deployments overrides the deployment sizes of the deployment
	// sweep (paper: 160, 320, 480, 640, 800).
	Deployments []int
	// FailureRates overrides the failure rates (per 5000 s) of the
	// failure sweep (paper: 5.33 .. 48 step 5.33).
	FailureRates []float64
	// FailureNodes is the deployment size of the failure sweep
	// (paper: 480).
	FailureNodes int
	// Forwarding toggles the data workload (needed for Figs. 10/13).
	Forwarding bool
	// Parallel bounds the number of simulations run concurrently
	// (0 = GOMAXPROCS). Runs are independent and individually seeded,
	// so parallel results equal sequential results exactly.
	Parallel int
}

// DefaultOptions returns the paper's evaluation setup.
func DefaultOptions() Options {
	return Options{
		Runs:         5,
		Seed:         1,
		Deployments:  []int{160, 320, 480, 640, 800},
		FailureRates: []float64{5.33, 10.66, 16, 21.33, 26.66, 32, 37.33, 42.66, 48},
		FailureNodes: 480,
		Forwarding:   true,
	}
}

func (o *Options) normalize() {
	d := DefaultOptions()
	if o.Runs <= 0 {
		o.Runs = d.Runs
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if len(o.Deployments) == 0 {
		o.Deployments = d.Deployments
	}
	if len(o.FailureRates) == 0 {
		o.FailureRates = d.FailureRates
	}
	if o.FailureNodes == 0 {
		o.FailureNodes = d.FailureNodes
	}
}

// derivedSeed gives every (sweep point, run) pair an independent stream.
func derivedSeed(root int64, point, run int) int64 {
	r := stats.NewRNG(root + int64(point)*1_000_003 + int64(run)*7_919)
	return r.Int63()
}

// PointStats is the mean of one sweep point's runs, with 95% confidence
// half-widths on the two headline lifetimes.
type PointStats struct {
	// CoverageLifetime[k-1] is the mean K-coverage lifetime.
	CoverageLifetime [MaxCoverageK]float64
	DeliveryLifetime float64
	Wakeups          float64
	ProtocolEnergy   float64
	TotalEnergy      float64
	OverheadRatio    float64
	MeanWorking      float64
	FailedFraction   float64
	// Coverage4CI and DeliveryCI are 95% confidence half-widths of the
	// 4-coverage and delivery lifetimes across the runs.
	Coverage4CI float64
	DeliveryCI  float64
}

// aggregate folds one sweep point's runs into their mean.
func aggregate(runs []*RunStats) PointStats {
	var pt PointStats
	var cov4s, delivs []float64
	for _, rs := range runs {
		if rs == nil {
			continue
		}
		cov4s = append(cov4s, rs.CoverageLifetime[3])
		delivs = append(delivs, rs.DeliveryLifetime)
		for k := 0; k < MaxCoverageK; k++ {
			pt.CoverageLifetime[k] += rs.CoverageLifetime[k]
		}
		pt.DeliveryLifetime += rs.DeliveryLifetime
		pt.Wakeups += float64(rs.Wakeups)
		pt.ProtocolEnergy += rs.ProtocolEnergy
		pt.TotalEnergy += rs.TotalEnergy
		pt.OverheadRatio += rs.OverheadRatio
		pt.MeanWorking += rs.MeanWorking
		pt.FailedFraction += rs.FailedFraction
	}
	if len(cov4s) == 0 {
		return pt
	}
	div := float64(len(cov4s))
	for k := 0; k < MaxCoverageK; k++ {
		pt.CoverageLifetime[k] /= div
	}
	pt.DeliveryLifetime /= div
	pt.Wakeups /= div
	pt.ProtocolEnergy /= div
	pt.TotalEnergy /= div
	pt.OverheadRatio /= div
	pt.MeanWorking /= div
	pt.FailedFraction /= div
	pt.Coverage4CI = stats.CI95(cov4s)
	pt.DeliveryCI = stats.CI95(delivs)
	return pt
}

// sweep runs one simulation per (point, run) cell of the grid, configured
// by cfgFor, and returns one aggregated PointStats per point. The two paper
// sweeps and every study whose columns are means of RunStats fields share
// it, so a mean is computed one way.
func sweep(points, runs, parallel int, cfgFor func(point, run int) RunConfig) ([]PointStats, error) {
	grid, err := runGrid(points, runs, parallel, func(point, run int) (*RunStats, error) {
		return Run(cfgFor(point, run))
	})
	if err != nil {
		return nil, err
	}
	out := make([]PointStats, points)
	for i := range out {
		out[i] = aggregate(grid[i])
	}
	return out, nil
}

// DeploymentPoint aggregates the runs at one deployment size.
type DeploymentPoint struct {
	N int
	PointStats
}

// DeploymentSweepResult holds the shared sweep behind Figures 9, 10, 11
// and Table 1.
type DeploymentSweepResult struct {
	Points []DeploymentPoint
}

// DeploymentSweep reproduces the §5.2 varying-population experiment:
// deployments of 160..800 nodes at the base failure rate, averaged over
// opts.Runs seeds.
func DeploymentSweep(opts Options) (*DeploymentSweepResult, error) {
	opts.normalize()
	pts, err := sweep(len(opts.Deployments), opts.Runs, opts.Parallel, func(point, run int) RunConfig {
		return RunConfig{
			Network:          node.DefaultConfig(opts.Deployments[point], derivedSeed(opts.Seed, point, run)),
			FailuresPer5000s: BaseFailuresPer5000,
			Forwarding:       opts.Forwarding,
		}
	})
	if err != nil {
		return nil, fmt.Errorf("deployment sweep: %w", err)
	}
	out := &DeploymentSweepResult{}
	for i, n := range opts.Deployments {
		out.Points = append(out.Points, DeploymentPoint{N: n, PointStats: pts[i]})
	}
	return out, nil
}

// Fig9 renders the coverage-lifetime-vs-deployment series (3-, 4-,
// 5-coverage).
func (r *DeploymentSweepResult) Fig9() *Table {
	t := &Table{
		Caption: "Figure 9: coverage lifetime vs. deployment number (seconds)",
		Headers: []string{"nodes", "3-coverage", "4-coverage", "5-coverage", "mean-working"},
	}
	var xs, y3 []float64
	for _, p := range r.Points {
		cov4 := fsec(p.CoverageLifetime[3])
		if p.Coverage4CI > 0 {
			cov4 = fmt.Sprintf("%s±%.0f", cov4, p.Coverage4CI)
		}
		t.AddRow(fmt.Sprint(p.N), fsec(p.CoverageLifetime[2]),
			cov4, fsec(p.CoverageLifetime[4]),
			fmt.Sprintf("%.1f", p.MeanWorking))
		xs = append(xs, float64(p.N))
		y3 = append(y3, p.CoverageLifetime[2])
	}
	slope, _ := stats.LinearFit(xs, y3)
	t.AddNote("3-coverage linear fit: %.1f s per additional node (r=%.3f)",
		slope, stats.PearsonR(xs, y3))
	return t
}

// Fig10 renders the data-delivery-lifetime-vs-deployment series.
func (r *DeploymentSweepResult) Fig10() *Table {
	t := &Table{
		Caption: "Figure 10: data delivery lifetime vs. deployment number (seconds)",
		Headers: []string{"nodes", "delivery-lifetime"},
	}
	var xs, ys []float64
	for _, p := range r.Points {
		cell := fsec(p.DeliveryLifetime)
		if p.DeliveryCI > 0 {
			cell = fmt.Sprintf("%s±%.0f", cell, p.DeliveryCI)
		}
		t.AddRow(fmt.Sprint(p.N), cell)
		xs = append(xs, float64(p.N))
		ys = append(ys, p.DeliveryLifetime)
	}
	slope, _ := stats.LinearFit(xs, ys)
	t.AddNote("linear fit: %.1f s per additional node (r=%.3f); paper: "+
		"≈6000 s per additional 160 nodes", slope, stats.PearsonR(xs, ys))
	return t
}

// Fig11 renders total wakeups vs deployment number.
func (r *DeploymentSweepResult) Fig11() *Table {
	t := &Table{
		Caption: "Figure 11: average total wakeup count vs. deployment number",
		Headers: []string{"nodes", "wakeups"},
	}
	var xs, ys []float64
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.N), fsec(p.Wakeups))
		xs = append(xs, float64(p.N))
		ys = append(ys, p.Wakeups)
	}
	t.AddNote("linear growth check: r=%.3f", stats.PearsonR(xs, ys))
	return t
}

// Table1 renders the energy-overhead table.
func (r *DeploymentSweepResult) Table1() *Table {
	t := &Table{
		Caption: "Table 1: energy overhead for deployment numbers",
		Headers: []string{"nodes", "overhead (J)", "total (J)", "overhead ratio"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.N), fmt.Sprintf("%.2f", p.ProtocolEnergy),
			fmt.Sprintf("%.0f", p.TotalEnergy), fpct(p.OverheadRatio))
	}
	t.AddNote("paper: 11.58 J/0.143%% at 160 nodes up to 111.11 J/0.267%% at 800; always <0.3%%")
	return t
}

// FailurePoint aggregates the runs at one failure rate.
type FailurePoint struct {
	RatePer5000 float64
	PointStats
}

// FailureSweepResult holds the shared sweep behind Figures 12-14.
type FailureSweepResult struct {
	Points []FailurePoint
}

// FailureSweep reproduces the §5.3 robustness experiment: 480 nodes with
// failure rates from 5.33 to 48 per 5000 s.
func FailureSweep(opts Options) (*FailureSweepResult, error) {
	opts.normalize()
	pts, err := sweep(len(opts.FailureRates), opts.Runs, opts.Parallel, func(point, run int) RunConfig {
		return RunConfig{
			Network:          node.DefaultConfig(opts.FailureNodes, derivedSeed(opts.Seed, 100+point, run)),
			FailuresPer5000s: opts.FailureRates[point],
			Forwarding:       opts.Forwarding,
		}
	})
	if err != nil {
		return nil, fmt.Errorf("failure sweep: %w", err)
	}
	out := &FailureSweepResult{}
	for i, rate := range opts.FailureRates {
		out.Points = append(out.Points, FailurePoint{RatePer5000: rate, PointStats: pts[i]})
	}
	return out, nil
}

// Fig12 renders coverage lifetime vs failure rate.
func (r *FailureSweepResult) Fig12() *Table {
	t := &Table{
		Caption: "Figure 12: coverage lifetime vs. failure rate (480 nodes)",
		Headers: []string{"rate/5000s", "failed-frac", "4-coverage", "3-coverage"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.2f", p.RatePer5000), fpct(p.FailedFraction),
			fsec(p.CoverageLifetime[3]), fsec(p.CoverageLifetime[2]))
	}
	if n := len(r.Points); n >= 2 {
		first, last := r.Points[0].CoverageLifetime[3], r.Points[n-1].CoverageLifetime[3]
		if first > 0 {
			t.AddNote("4-coverage lifetime drop at max rate: %.1f%% (paper: 12-20%%)",
				100*(1-last/first))
		}
	}
	return t
}

// Fig13 renders data delivery lifetime vs failure rate.
func (r *FailureSweepResult) Fig13() *Table {
	t := &Table{
		Caption: "Figure 13: data delivery lifetime vs. failure rate (480 nodes)",
		Headers: []string{"rate/5000s", "delivery-lifetime"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.2f", p.RatePer5000), fsec(p.DeliveryLifetime))
	}
	if n := len(r.Points); n >= 2 {
		first, last := r.Points[0].DeliveryLifetime, r.Points[n-1].DeliveryLifetime
		if first > 0 {
			t.AddNote("drop at max rate: %.1f%% (paper: ≈20%%)", 100*(1-last/first))
		}
	}
	return t
}

// Fig14 renders wakeups vs failure rate.
func (r *FailureSweepResult) Fig14() *Table {
	t := &Table{
		Caption: "Figure 14: average total wakeup count vs. failure rate (480 nodes)",
		Headers: []string{"rate/5000s", "wakeups", "overhead-ratio"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.2f", p.RatePer5000), fsec(p.Wakeups), fpct(p.OverheadRatio))
	}
	t.AddNote("paper: wakeups decrease with failure rate; overhead constantly <0.25%%")
	return t
}
