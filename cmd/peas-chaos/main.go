// Command peas-chaos runs scripted fault-injection campaigns against the
// PEAS reproduction, on either substrate:
//
// Simulator mode (default) runs a fault-free baseline and a chaos run of
// the same deployment under the runtime invariant oracle, prints the
// per-fault-class activity counters, and emits a degradation report —
// coverage, working-set size and probe convergence under faults versus
// the baseline — checking the §5.2 expectation that PEAS degrades
// gracefully rather than collapsing.
//
// Live mode (-live) boots goroutine nodes over an in-memory transport
// with channel impairments injected on the broadcast path, then
// crash-restarts a working node from its supervised checkpoint and
// verifies it resumes (not reboots) and rejoins the working set.
//
// Usage:
//
//	peas-chaos -n 160 -seed 1 -horizon 2500 -plan mixed
//	peas-chaos -plan campaign.json -strict
//	peas-chaos -live -scale 150 -duration 12s
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
	"time"

	"peas"
	"peas/internal/buildinfo"
	"peas/internal/chaos"
	"peas/internal/core"
	"peas/internal/metrics"
	"peas/peasnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 160, "number of deployed nodes (sim mode)")
		seed     = flag.Int64("seed", 1, "campaign seed (deployment and fault RNG streams)")
		horizon  = flag.Float64("horizon", 2500, "simulated seconds (sim mode)")
		planArg  = flag.String("plan", "mixed", `fault plan: "mixed" (built-in, every class) or a JSON file path`)
		strict   = flag.Bool("strict", false, "exit non-zero on unexercised classes, oracle violations or an envelope breach")
		live     = flag.Bool("live", false, "run the live-runtime campaign (crash-restart from checkpoint) instead of the simulator")
		liveN    = flag.Int("live-n", 40, "live mode: number of nodes")
		scale    = flag.Float64("scale", 150, "live mode: protocol seconds per real second")
		duration = flag.Duration("duration", 12*time.Second, "live mode: total real-time budget")
	)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-chaos"))
		return nil
	}

	if *live {
		return runLive(*liveN, *seed, *scale, *duration, *strict)
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

// runLive exercises the live substrate: channel impairments on the
// broadcast path plus a supervised crash-restart of a working node, which
// must resume from its checkpoint (keeping its protocol history) and
// rejoin the working set.
func runLive(n int, seed int64, scale float64, budget time.Duration, strict bool) error {
	counters := metrics.NewCounters()
	channel := chaos.NewChannel(seed, counters)
	channel.SetLoss(0.05)
	channel.SetDuplication(0.05)
	channel.SetDelay(0.2, 0.05)
	inj := peasnet.NewChaosInjector(channel, scale)

	tr := peasnet.NewInMemory()
	tr.SetFaultInjector(inj)
	cluster, err := peasnet.NewCluster(peasnet.ClusterConfig{
		Field:     peas.Field{Width: 20, Height: 20},
		N:         n,
		Protocol:  peas.DefaultProtocolConfig(),
		TimeScale: scale,
		Seed:      seed,
		Battery:   &peasnet.BatteryConfig{Joules: 500},
	}, tr)
	if err != nil {
		_ = tr.Close()
		return err
	}
	defer func() { _ = tr.Close() }()
	defer cluster.Stop()

	stopSup := cluster.Supervise(300 * time.Millisecond)
	defer stopSup()
	cluster.Start()
	fmt.Printf("live cluster:         %d nodes, x%.0f time, loss 5%% + dup 5%% + delay 20%%\n", n, scale)

	// Under live impairments the working set hovers around its steady
	// size rather than freezing (loss and duplication keep a trickle of
	// wakeups and turn-offs going), so stabilization is judged with a
	// small tolerance instead of an exact match.
	settle := budget / 8
	if !cluster.AwaitStable(3, settle, budget/2) {
		return fmt.Errorf("working set did not stabilize within %v", budget/2)
	}
	before := cluster.WorkingCount()
	fmt.Printf("stable working set:   %d nodes\n", before)

	// Crash-restart one working node from its supervised checkpoint.
	victim := -1
	var pre core.Stats
	for _, nd := range cluster.Nodes {
		if nd.State() == peas.Working {
			victim = nd.ID()
			pre = nd.Stats()
			break
		}
	}
	if victim < 0 {
		return fmt.Errorf("no working node to crash")
	}
	down := budget / 12
	fmt.Printf("crash-restart:        node %d (working), downtime %v\n", victim, down)
	inj.With(func(c *chaos.Channel) { c.Counters().Add(chaos.CtrCrash, 1) })
	if err := cluster.CrashRestart(victim, down); err != nil {
		return err
	}
	inj.With(func(c *chaos.Channel) { c.Counters().Add(chaos.CtrRestarted, 1) })

	var restarted *peasnet.Node
	for _, nd := range cluster.Nodes {
		if nd.ID() == victim {
			restarted = nd
		}
	}
	post := restarted.Stats()
	resumed := restarted.State() == core.Working &&
		post.Wakeups >= pre.Wakeups && post.ProbesSent >= pre.ProbesSent
	fmt.Printf("restarted node %d:     state=%v wakeups=%d (pre-crash %d) probes=%d (pre-crash %d)\n",
		victim, restarted.State(), post.Wakeups, pre.Wakeups, post.ProbesSent, pre.ProbesSent)
	if !resumed {
		if strict {
			return fmt.Errorf("node %d rebooted fresh instead of resuming its checkpoint", victim)
		}
		fmt.Println("problem:              node rebooted fresh instead of resuming its checkpoint")
	} else {
		fmt.Println("resume check:         OK (protocol history carried across the restart)")
	}
	if !cluster.AwaitStable(3, settle, budget/2) {
		return fmt.Errorf("working set did not restabilize after the restart")
	}
	fmt.Printf("restabilized:         %d working nodes (was %d)\n", cluster.WorkingCount(), before)

	var names []string
	snap := map[string]uint64{}
	inj.With(func(c *chaos.Channel) {
		names = c.Counters().Names()
		snap = c.Counters().Snapshot()
	})
	fmt.Println("fault activity:")
	for _, name := range names {
		fmt.Printf("  %-18s %8d\n", name, snap[name])
	}
	fmt.Printf("transport drops:      %d frames\n", snap[chaos.CtrDropLoss]+snap[chaos.CtrDropBurst]+snap[chaos.CtrDropPartition])
	if strict {
		for _, want := range []string{chaos.CtrDropLoss, chaos.CtrDup, chaos.CtrDelay} {
			if snap[want] == 0 {
				return fmt.Errorf("fault class %q never fired on the live transport", want)
			}
		}
	}
	return nil
}
