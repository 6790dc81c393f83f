// Command peas-chaos runs scripted fault-injection campaigns against the
// PEAS simulator: a fault-free baseline and a chaos run of the same
// deployment under the runtime invariant oracle. It prints the
// per-fault-class activity counters and a degradation report — coverage,
// working-set size and probe convergence under faults versus the
// baseline — checking the §5.2 expectation that PEAS degrades gracefully
// rather than collapsing.
//
// The live runtime's campaign (channel impairments plus a supervised
// crash-restart) is a virtual-time test of package peasnet,
// TestLiveChaosCampaignReplays.
//
// Usage:
//
//	peas-chaos -n 160 -seed 1 -horizon 2500 -plan mixed
//	peas-chaos -plan campaign.json -strict
//
// -strict turns unexercised fault classes, oracle violations and
// envelope breaches into a non-zero exit, which is what the CI chaos
// soak runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"peas"
	"peas/internal/buildinfo"
	"peas/internal/chaos"
	"peas/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n       = flag.Int("n", 160, "number of deployed nodes")
		seed    = flag.Int64("seed", 1, "campaign seed (deployment and fault RNG streams)")
		horizon = flag.Float64("horizon", 2500, "simulated seconds")
		planArg = flag.String("plan", "mixed", `fault plan: "mixed" (built-in, every class) or a JSON file path`)
		strict  = flag.Bool("strict", false, "exit non-zero on unexercised classes, oracle violations or an envelope breach")
	)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-chaos"))
		return nil
	}

	plan, err := loadPlan(*planArg, *horizon, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("campaign:             %s (%d events, %d classes), %d nodes, seed %d, %.0f s\n",
		plan.Name, len(plan.Events), len(plan.Classes()), *n, *seed, *horizon)
	return runCampaign(*n, *seed, *horizon, plan, *strict)
}

// loadPlan resolves the -plan argument. A file plan without a seed
// inherits the campaign seed so the run stays reproducible.
func loadPlan(arg string, horizon float64, seed int64) (*chaos.Plan, error) {
	if arg == "mixed" {
		return chaos.MixedPlan(horizon, seed), nil
	}
	p, err := chaos.Load(arg)
	if err != nil {
		return nil, err
	}
	if p.Seed == 0 {
		p.Seed = seed
	}
	return p, nil
}

// runOne executes one oracle-instrumented run of the standard deployment,
// with scripted faults when plan is non-nil (and no other fault source,
// so the plan alone explains any degradation). It returns the run stats,
// the armed oracle, and the working-set time series for convergence
// analysis.
func runOne(n int, seed int64, horizon float64, plan *chaos.Plan) (*peas.RunStats, *peas.InvariantChecker, *metrics.Series, error) {
	cfg := peas.DefaultRunConfig(n, seed)
	cfg.Horizon = horizon
	cfg.Forwarding = false
	cfg.FailuresPer5000s = 0
	cfg.Chaos = plan
	working := metrics.NewSeries("working")
	cfg.OnSample = func(t float64, w int, _ []float64) { working.Record(t, float64(w)) }
	var checker *peas.InvariantChecker
	cfg.OnNetwork = func(net *peas.Network) {
		checker = peas.AttachChecker(net, peas.DefaultInvariantConfig())
	}
	res, err := peas.Run(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, checker, working, nil
}

// convergence returns how long the working set took to first reach 90%
// of its steady (post-boot) mean — the probe-convergence metric of the
// degradation report.
func convergence(working *metrics.Series, steadyMean float64) (float64, bool) {
	return working.FirstAtLeast(0.9 * steadyMean)
}

func violationCount(c *peas.InvariantChecker) int {
	return len(c.Violations()) + c.Dropped()
}

func runCampaign(n int, seed int64, horizon float64, plan *chaos.Plan, strict bool) error {
	base, baseChecker, baseWorking, err := runOne(n, seed, horizon, nil)
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	res, checker, working, err := runOne(n, seed, horizon, plan)
	if err != nil {
		return fmt.Errorf("chaos run: %w", err)
	}

	counts := res.Chaos
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("fault activity:")
	if len(names) == 0 {
		fmt.Println("  (none)")
	}
	for _, name := range names {
		fmt.Printf("  %-18s %8d\n", name, counts[name])
	}
	var problems []string
	if missing := chaos.Unexercised(plan.Classes(), counts); len(missing) > 0 {
		problems = append(problems, fmt.Sprintf("unexercised fault classes: %v", missing))
	} else {
		fmt.Println("unexercised classes:  none (every planned class fired and was counted)")
	}

	baseConv, _ := convergence(baseWorking, base.MeanWorking)
	chaosConv, _ := convergence(working, res.MeanWorking)
	fmt.Println("degradation report (chaos vs fault-free baseline):")
	fmt.Printf("  initial 1-coverage:  %.4f vs %.4f\n", res.InitialCoverage[0], base.InitialCoverage[0])
	fmt.Printf("  mean working nodes:  %.1f vs %.1f\n", res.MeanWorking, base.MeanWorking)
	fmt.Printf("  1-coverage lifetime: %.0f s vs %.0f s (dropped=%v/%v)\n",
		res.CoverageLifetime[0], base.CoverageLifetime[0],
		res.CoverageDropped[0], base.CoverageDropped[0])
	fmt.Printf("  probe convergence:   %.0f s vs %.0f s to reach 90%% of steady working set\n",
		chaosConv, baseConv)
	fmt.Printf("  node faults:         %d injected (fail-stop %d, transient %d, crash-restart %d)\n",
		counts[chaos.CtrFailStop]+counts[chaos.CtrFailRecover]+counts[chaos.CtrCrash],
		counts[chaos.CtrFailStop], counts[chaos.CtrFailRecover], counts[chaos.CtrCrash])
	fmt.Printf("  oracle violations:   %d (baseline %d)\n", violationCount(checker), violationCount(baseChecker))
	for _, v := range checker.Violations() {
		fmt.Printf("    %s\n", v)
	}

	// The §5.2 envelope: under faults the sensing service must degrade
	// gracefully — coverage holds near the fault-free level while the
	// faults are live, and the coverage lifetime stays within half the
	// baseline rather than collapsing.
	if res.InitialCoverage[0] < 0.9*base.InitialCoverage[0] {
		problems = append(problems, fmt.Sprintf("initial coverage %.4f fell below 90%% of baseline %.4f",
			res.InitialCoverage[0], base.InitialCoverage[0]))
	}
	if res.CoverageLifetime[0] < 0.5*base.CoverageLifetime[0] {
		problems = append(problems, fmt.Sprintf("coverage lifetime collapsed: %.0f s vs baseline %.0f s",
			res.CoverageLifetime[0], base.CoverageLifetime[0]))
	}
	if violationCount(checker) > 0 || violationCount(baseChecker) > 0 {
		problems = append(problems, "runtime invariant oracle reported violations")
	}

	if len(problems) == 0 {
		fmt.Println("envelope check:       OK (coverage within the §5.2 graceful-degradation envelope)")
		return nil
	}
	for _, p := range problems {
		fmt.Printf("problem:              %s\n", p)
	}
	if strict {
		return fmt.Errorf("%d problem(s) in strict mode", len(problems))
	}
	return nil
}
