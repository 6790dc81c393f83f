// Command peas-sim runs one PEAS simulation with the paper's setup and
// prints the metrics: coverage lifetimes, data delivery lifetime, wakeup
// count and energy overhead.
//
// Usage:
//
//	peas-sim -n 480 -seed 1 -failures 10.66 -horizon 0
//	peas-sim -n 480 -checkpoint-every 1000 -checkpoint-dir ckpts
//	peas-sim -resume ckpts/checkpoint-t0003000.0.ckpt
//	peas-sim -n 160 -seed 1 -check
//	peas-sim -n 160 -seed 1 -check -horizon 2000 -trace t.jsonl
//	peas-sim -n 160 -chaos-plan mixed -check
//	peas-sim -config job.json
//
// A horizon of 0 selects a deployment-proportional default long enough
// for the network to exhaust itself. -checkpoint-every writes periodic
// full-state snapshots and -resume continues one.
//
// Every mode is one run, and every output flag applies to it. -check
// arms the runtime invariant oracle (energy conservation, radio
// discipline, worker redundancy, timer monotonicity) on that run. Once
// the requested files are written, it reports the violations and then
// replays the run through the checkpoint chain: a direct run, resumed
// from a snapshot at every quarter of the horizon, must end
// bit-identical each time. Any violation or divergence exits non-zero
// after the metrics are printed. Under -chaos-plan the chain is skipped:
// chaos state lives outside the checkpoint format. -check refuses
// -resume, since the chain replays the run from t = 0.
//
// Every run is described by one JSON job spec, the one peas-serve takes
// at POST /api/v1/jobs: -config reads it from a file, strictly (an
// unknown field, a partly filled configuration section or trailing data
// is refused), and otherwise the run flags build it. -remote submits the
// same spec to a peas-serve instance instead of running it here.
package main

import (
	"cmp"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"peas"
	"peas/internal/buildinfo"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 480, "number of deployed nodes")
		seed      = flag.Int64("seed", 1, "simulation seed")
		failures  = flag.Float64("failures", 10.66, "injected failures per 5000 s")
		horizon   = flag.Float64("horizon", 0, "simulated seconds (0 = auto)")
		forward   = flag.Bool("forward", true, "run the source->sink data workload")
		rp        = flag.Float64("rp", 3, "probing range Rp in meters")
		lambdaD   = flag.Float64("lambda-d", 0.02, "desired aggregate probing rate λd (1/s)")
		lambda0   = flag.Float64("lambda-0", 0.1, "initial probing rate λ0 (1/s)")
		loss      = flag.Float64("loss", 0, "extra i.i.d. packet loss rate [0,1)")
		turnoff   = flag.Bool("turnoff", true, "enable the §4 redundant-worker turn-off")
		traceOut  = flag.String("trace", "", "write a JSONL event trace to this file")
		svgOut    = flag.String("svg", "", "write a final-state SVG snapshot to this file")
		ascii     = flag.Bool("ascii", false, "print a final-state ASCII map")
		seriesOut = flag.String("series", "", "write the working/coverage time series as CSV to this file")
		config    = flag.String("config", "", `run the JSON job spec in this file, as POST /api/v1/jobs takes it (e.g. {"network":{"N":480,"Seed":1},"forwarding":true}); the run flags (-n, -seed, -failures, -horizon, -forward, -rp, -lambda-d, -lambda-0, -loss, -turnoff) are then ignored`)
		ckptEvery = flag.Float64("checkpoint-every", 0, "write a checkpoint every this many simulated seconds")
		ckptDir   = flag.String("checkpoint-dir", ".", "directory for periodic checkpoints")
		resume    = flag.String("resume", "", "resume from this checkpoint file instead of starting fresh")
		check     = flag.Bool("check", false, "arm the runtime invariant oracle on the run, then verify its checkpoint chain; non-zero exit on any violation or divergence")
		chaosPlan = flag.String("chaos-plan", "", `run under a scripted fault plan: a JSON file path or "mixed" (every fault class, sized to the run's horizon)`)
		remote    = flag.String("remote", "", "submit to a peas-serve instance at this base URL instead of running locally")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-sim"))
		return nil
	}

	// Every run is one job spec, as peas-serve takes it: read from
	// -config, or built from the run flags.
	var spec *jobqueue.Spec
	if *config != "" {
		var err error
		if spec, err = loadSpec(*config); err != nil {
			return err
		}
	} else {
		spec = jobqueue.NewSimSpec(*n, *seed)
		spec.FailuresPer5000s = *failures
		spec.Horizon = *horizon
		spec.Forwarding = *forward
		p := &spec.Network.Protocol
		p.ProbingRange, p.DesiredRate, p.InitialRate, p.TurnoffEnabled = *rp, *lambdaD, *lambda0, *turnoff
		spec.Network.Radio.LossRate = *loss
	}
	spec.Check = spec.Check || *check
	if *chaosPlan != "" {
		if *chaosPlan == "mixed" {
			// Sized on the horizon the run will use, so that every
			// class fires before it ends.
			h := spec.Horizon
			if h <= 0 {
				h = experiment.DefaultHorizon(spec.Network.N)
				if spec.Check && *remote == "" {
					h = checkHorizon
				}
			}
			spec.Chaos = peas.MixedChaosPlan(h, spec.Network.Seed)
		} else {
			plan, err := peas.LoadChaosPlan(*chaosPlan)
			if err != nil {
				return err
			}
			spec.Chaos = plan
		}
		spec.Kind = jobqueue.KindChaos
	}
	// The horizon as written: 0 leaves the default to the mode (a check
	// pass bounds it at checkHorizon, a resumed run takes the snapshot's),
	// while Normalize resolves it for the service's content key.
	horizonSet := spec.Horizon
	if err := spec.Normalize(); err != nil {
		return err
	}

	if spec.DeadlineSeconds > 0 && *remote == "" {
		return fmt.Errorf("deadlineSeconds bounds a peas-serve job; a local run has no deadline (submit with -remote)")
	}
	if spec.Check && *resume != "" {
		return fmt.Errorf("-check cannot combine with -resume: the checkpoint chain replays the run from t = 0")
	}
	if plan := spec.Chaos; plan != nil {
		if *resume != "" || *ckptEvery > 0 {
			return fmt.Errorf("a chaos plan cannot combine with -resume or -checkpoint-every (chaos state lives outside the checkpoint format)")
		}
		fmt.Printf("chaos plan:            %s (%d events, %d classes)\n",
			plan.Name, len(plan.Events), len(plan.Classes()))
	}

	if *remote != "" {
		if *resume != "" || *ckptEvery > 0 || *traceOut != "" || *svgOut != "" || *ascii || *seriesOut != "" {
			return fmt.Errorf("-remote only supports the plain run flags (plus -check and -chaos-plan); local-only outputs are unavailable")
		}
		return runRemote(*remote, spec)
	}
	cfg := spec.RunConfig()
	cfg.Horizon = horizonSet
	if spec.Check && cfg.Horizon <= 0 {
		cfg.Horizon = checkHorizon
		fmt.Printf("check:           horizon unset, using %d s\n", checkHorizon)
	}
	// The chain replays the run as described, taken before any output or
	// hook is attached: VerifyCheckpointChain hands Trace and OnNetwork to
	// every resumed leg.
	chainCfg := cfg
	*n, *seed = spec.Network.N, spec.Network.Seed
	if *resume != "" {
		snap, err := loadCheckpoint(*resume)
		if err != nil {
			return err
		}
		// The snapshot carries the full configuration; -horizon (when
		// positive) extends the run past the recorded end time.
		cfg.Resume = snap
		*n, *seed, spec.Forwarding = snap.Net.N, snap.Net.Seed, snap.Forwarding
		fmt.Printf("resuming:              %s (t=%.1f s, %d nodes)\n",
			*resume, snap.SimTime, snap.Net.N)
	}
	var ckptErr error
	if *ckptEvery > 0 {
		cfg.CheckpointEvery = *ckptEvery
		cfg.OnCheckpoint = func(s *peas.Checkpoint) bool {
			path, err := writeCheckpoint(*ckptDir, s)
			if err != nil {
				ckptErr = err
				return true // stop the run; the error surfaces below
			}
			fmt.Printf("checkpoint:            t=%.1f s -> %s\n", s.SimTime, path)
			return false
		}
	}

	var recorder *peas.TraceRecorder
	if *traceOut != "" {
		recorder = peas.NewTraceRecorder(0)
		cfg.Trace = recorder
	}
	var seriesFile *os.File
	var seriesW *csv.Writer
	if *seriesOut != "" {
		f, err := os.Create(*seriesOut)
		if err != nil {
			return fmt.Errorf("create series file: %w", err)
		}
		seriesFile = f
		seriesW = csv.NewWriter(f)
		if err := seriesW.Write([]string{"t", "working", "cov1", "cov2", "cov3", "cov4", "cov5"}); err != nil {
			return err
		}
		cfg.OnSample = func(t float64, working int, byK []float64) {
			row := make([]string, 0, 7)
			row = append(row, strconv.FormatFloat(t, 'f', 1, 64), strconv.Itoa(working))
			for _, v := range byK {
				row = append(row, strconv.FormatFloat(v, 'f', 4, 64))
			}
			_ = seriesW.Write(row)
		}
	}

	var snapshotErr error
	if *svgOut != "" || *ascii {
		cfg.OnFinish = func(net *peas.Network) {
			if *ascii {
				fmt.Println(peas.RenderASCII(net, 2))
			}
			if *svgOut != "" {
				f, err := os.Create(*svgOut)
				if err != nil {
					snapshotErr = err
					return
				}
				if err := peas.RenderSVG(f, net, peas.SVGOptions{
					SensingRange: 10,
					Title:        fmt.Sprintf("PEAS %d nodes, t=%.0f s", *n, net.Engine.Now()),
				}); err != nil {
					snapshotErr = err
				}
				if err := f.Close(); err != nil && snapshotErr == nil {
					snapshotErr = err
				}
			}
		}
	}

	var checker *peas.InvariantChecker
	if spec.Check {
		cfg.OnNetwork = func(net *peas.Network) {
			checker = peas.AttachChecker(net, peas.DefaultInvariantConfig())
		}
	}

	res, err := peas.Run(cfg)
	if err != nil {
		return err
	}
	if ckptErr != nil {
		return fmt.Errorf("write checkpoint: %w", ckptErr)
	}
	if snapshotErr != nil {
		return fmt.Errorf("snapshot: %w", snapshotErr)
	}

	if recorder != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		if err := recorder.WriteJSONL(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace:                 %d events -> %s\n", recorder.Len(), *traceOut)
	}
	if seriesW != nil {
		seriesW.Flush()
		if err := seriesW.Error(); err != nil {
			_ = seriesFile.Close()
			return fmt.Errorf("write series: %w", err)
		}
		if err := seriesFile.Close(); err != nil {
			return err
		}
		fmt.Printf("series:                -> %s\n", *seriesOut)
	}

	// Files first, then the check report, then the metrics: a failed
	// check still leaves everything it was asked to write on disk.
	var checkErr error
	if checker != nil {
		checkErr = reportCheck(checker, chainCfg)
	}
	printStats(*n, *seed, spec.Forwarding, res)
	return checkErr
}

// printStats renders the metric summary shared by local and remote runs.
func printStats(n int, seed int64, forwarding bool, res *peas.RunStats) {
	fmt.Printf("deployment:            %d nodes, seed %d\n", n, seed)
	fmt.Printf("mean working nodes:    %.1f\n", res.MeanWorking)
	for k := 3; k <= 5; k++ {
		fmt.Printf("%d-coverage lifetime:   %.0f s (dropped=%v)\n",
			k, res.CoverageLifetime[k-1], res.CoverageDropped[k-1])
	}
	if forwarding {
		fmt.Printf("data delivery lifetime: %.0f s (dropped=%v; %d/%d reports; %d route rebuilds over %d working-set flips)\n",
			res.DeliveryLifetime, res.DeliveryDropped, res.ReportsDelivered, res.ReportsGenerated,
			res.RouteRebuilds, res.WorkingTransitions)
	}
	fmt.Printf("wakeups:               %d\n", res.Wakeups)
	fmt.Printf("energy overhead:       %.2f J of %.0f J total (%.3f%%)\n",
		res.ProtocolEnergy, res.TotalEnergy, 100*res.OverheadRatio)
	fmt.Printf("§5.2 failures:         %d (%.1f%% of deployment)\n",
		res.FailuresInjected, 100*res.FailedFraction)
	fmt.Printf("packets:               sent=%d delivered=%d collided=%d\n",
		res.PacketsSent, res.PacketsDelivered, res.PacketsCollided)
	if res.EngineEvents > 0 {
		share := func(n uint64) float64 { return 100 * float64(n) / float64(res.EngineEvents) }
		fmt.Printf("engine:                %d events (%.0f%% deliveries, %.0f%% CSMA deferrals, %.0f%% protocol timers, %.0f%% other); %d heap slots (%d near)\n",
			res.EngineEvents, share(res.DeliveryEvents), share(res.DeferralEvents), share(res.TimerEvents),
			share(res.OtherEvents), res.HeapSlots, res.NearSlots)
	}
	if res.Chaos != nil {
		// By name: a map has no order, and creation order does not
		// survive the service's wire.
		names := make([]string, 0, len(res.Chaos))
		for name := range res.Chaos {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("chaos activity:")
		for _, name := range names {
			fmt.Printf("  %-20s %8d\n", name, res.Chaos[name])
		}
	}
}

// checkHorizon bounds a check pass whose horizon is unset: the
// open-ended run-to-exhaustion default is the wrong shape for it, so it
// runs the paper's evaluation horizon.
const checkHorizon = 5000

// reportCheck prints the oracle's findings on the user's run, then
// replays cfg, the run as described before any hook was attached,
// through the checkpoint-chain differential. A chaos run has no chain to
// verify. Any invariant violation or chain divergence is returned as an
// error.
func reportCheck(checker *peas.InvariantChecker, cfg peas.RunConfig) error {
	violations := checker.Violations()
	fmt.Printf("invariants:      %d violations over %.0f s (%d nodes)\n",
		len(violations)+checker.Dropped(), cfg.Horizon, cfg.Network.N)
	for _, v := range violations {
		fmt.Printf("  %s\n", v)
	}
	if d := checker.Dropped(); d > 0 {
		fmt.Printf("  ... and %d more (capped)\n", d)
	}
	if cfg.Chaos != nil {
		fmt.Println("checkpoint chain: skipped (chaos state lives outside the checkpoint format)")
		if err := checker.Err(); err != nil {
			return err
		}
		fmt.Println("check:           OK (all invariants held under the chaos plan)")
		return nil
	}

	chain, err := peas.VerifyCheckpointChain(cfg, cfg.Horizon/4)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint chain: %d boundaries resumed against direct hash %s\n",
		chain.Boundaries, chain.FinalHash)
	for _, m := range chain.Mismatches {
		fmt.Printf("  diverged: %s\n", m)
	}
	if err := cmp.Or(checker.Err(), chain.Err()); err != nil {
		return err
	}
	fmt.Println("check:           OK (all invariants held, checkpoint chain bit-exact)")
	return nil
}

// loadSpec reads a job spec file through the service's own strict
// decoder.
func loadSpec(path string) (*jobqueue.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := jobqueue.DecodeSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func loadCheckpoint(path string) (*peas.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := peas.DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

func writeCheckpoint(dir string, s *peas.Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("checkpoint-t%09.1f.ckpt", s.SimTime))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := s.Encode(f); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
