// Command peas-loadgen is the deterministic load generator and soak
// harness of the simulation service. It synthesizes a seeded workload —
// job specs with a tunable duplicate-key ratio, an SSE-follow fraction
// and a chaos fraction — drives a peas-serve instance with it in
// closed-loop (fixed concurrency) or open-loop (fixed arrival rate)
// mode, and emits a machine-readable JSON report with pass/fail SLO
// assertions: zero lost jobs, hash consistency, observed cache-hit +
// coalesce rate within tolerance of the planned mix, and (on request)
// a leak-free service. It asserts correctness, not speed: latency and
// throughput belong to benchmark/run.sh.
//
// Usage:
//
//	peas-loadgen -url http://127.0.0.1:8080 -jobs 200 -dup 0.3
//	peas-loadgen -mode open -rate 100 -follow 0.5
//	peas-loadgen -cancel 0.4 -hang-jobs 3 -deadline-jobs 2 -check-leaks
//	peas-loadgen -soak -serve-bin ./peas-serve -cycles 3 -state-dir /tmp/peas-soak
//
// Two invocations with the same -seed submit the identical multiset of
// content keys (the report's keyMultisetHash), which is what makes the
// observed duplicate rate assertable.
//
// In -soak mode the harness manages its own peas-serve child: every
// cycle but the last SIGTERMs the server while long-horizon jobs are
// running, forcing checkpoint-suspend; the next cycle verifies the
// recovered jobs resume and reproduce the independently computed
// reference StateHash. The process exits 0 iff the report passes.
//
// In -soak-kill9 mode there is no mercy: every cycle but the last
// SIGKILLs the managed server at seeded points mid-run — a seeded
// delay into the submission storm, or right as drain-checkpoint files
// start appearing, with -durable-delay widening the window so kills
// land inside durable writes. Every boot must account for every spec
// file present at kill time (recovered + quarantined), resumed jobs
// must reproduce the reference StateHash, and injected-panic jobs must
// land in failed without taking the worker pool down.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peas/internal/buildinfo"
	"peas/internal/client"
	"peas/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		url     = flag.String("url", "http://127.0.0.1:8080", "service base URL (plain load mode)")
		out     = flag.String("out", "", "write the JSON report here instead of stdout")
		version = flag.Bool("version", false, "print version and exit")

		// Workload mix.
		seed    = flag.Int64("seed", 1, "workload seed; equal seeds submit equal key multisets")
		jobs    = flag.Int("jobs", 100, "submissions per run")
		dup     = flag.Float64("dup", 0.3, "duplicate-key ratio (target coalesce+cache-hit rate)")
		follow  = flag.Float64("follow", 0.5, "fraction of jobs followed over SSE instead of polled")
		chaosFr = flag.Float64("chaos", 0.1, "fraction of fresh specs carrying a chaos plan")
		n       = flag.Int("n", 40, "deployment size per job")
		horizon = flag.Float64("horizon", 600, "simulated seconds per job")

		// Cancellation-storm knobs. -cancel draws a seeded fraction of
		// unambiguous jobs for cancellation at random lifecycle points;
		// -hang-jobs and -deadline-jobs inject wedged and unmeetable-budget
		// work whose containment the report asserts (pair -hang-jobs with a
		// peas-serve -watchdog stall window).
		cancelFr     = flag.Float64("cancel", 0, "fraction of jobs cancelled at seeded lifecycle points")
		hangJobs     = flag.Int("hang-jobs", 0, "injected-hang jobs, each expected to be watchdog-preempted")
		deadlineJobs = flag.Int("deadline-jobs", 0, "unmeetable-deadline jobs, each expected to be deadline-enforced")
		checkLeaks   = flag.Bool("check-leaks", false, "assert post-run service hygiene: drained pool, no goroutine growth")

		// Drive mode.
		mode       = flag.String("mode", loadgen.ModeClosed, "closed (fixed concurrency) or open (fixed arrival rate)")
		conc       = flag.Int("concurrency", 8, "closed-loop concurrent submitters")
		rate       = flag.Float64("rate", 50, "open-loop arrival rate in jobs/s")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "per-job end-to-end budget")
		retries    = flag.Int("retries", 4, "max submit attempts per job on 429")

		// SLO gates.
		dupTol = flag.Float64("dup-tol", 0.02, "allowed |observed - planned| duplicate-rate deviation")

		// Soak modes.
		soak      = flag.Bool("soak", false, "run drain/restart soak cycles against a managed peas-serve")
		soakKill9 = flag.Bool("soak-kill9", false, "run SIGKILL crash-soak cycles against a managed peas-serve")
		serveBin  = flag.String("serve-bin", "", "peas-serve binary path (required with -soak/-soak-kill9)")
		stateDir  = flag.String("state-dir", "", "server state dir for drain persistence (default: temp dir)")
		addr      = flag.String("addr", "127.0.0.1:18742", "managed server listen address (-soak/-soak-kill9)")
		cycles    = flag.Int("cycles", 2, "soak submit cycles; all but the last end in a mid-run drain or kill")
		longJobs  = flag.Int("long-jobs", 2, "long-horizon drain-victim jobs appended to the plan (-soak/-soak-kill9)")
		panicJobs = flag.Int("panic-jobs", 1, "injected-panic jobs in the plan, expected to fail in isolation (-soak-kill9)")
		drain     = flag.Duration("drain", 150*time.Millisecond, "managed server drain budget; short so long jobs suspend (-soak/-soak-kill9)")
		ckptEvery = flag.Float64("checkpoint-every", 50, "managed server drain-checkpoint cadence in simulated seconds (-soak/-soak-kill9)")
		killSeed  = flag.Int64("kill-seed", 1, "seed for the SIGKILL timing choreography (-soak-kill9)")
		durDelay  = flag.Duration("durable-delay", 2*time.Millisecond, "managed server per-disk-op delay, widening the kill window (-soak-kill9)")
		verbose   = flag.Bool("v", false, "stream harness and server logs to stderr")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-loadgen"))
		return nil
	}

	cfg := loadgen.Config{
		Mix: loadgen.Mix{
			Seed:           *seed,
			Jobs:           *jobs,
			DuplicateRatio: *dup,
			FollowFraction: *follow,
			ChaosFraction:  *chaosFr,
			N:              *n,
			Horizon:        *horizon,
			RateHz:         *rate,
			CancelFraction: *cancelFr,
			HangJobs:       *hangJobs,
			DeadlineJobs:   *deadlineJobs,
		},
		Mode:        *mode,
		Concurrency: *conc,
		Retry:       client.RetryPolicy{MaxAttempts: *retries},
		JobTimeout:  *jobTimeout,
		SLO: loadgen.SLO{
			DuplicateRateTolerance: *dupTol,
			CheckLeaks:             *checkLeaks,
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var report any
	var pass bool
	if *soak || *soakKill9 {
		if *soak && *soakKill9 {
			return fmt.Errorf("-soak and -soak-kill9 are mutually exclusive")
		}
		if *serveBin == "" {
			return fmt.Errorf("-soak/-soak-kill9 requires -serve-bin (build it with: go build ./cmd/peas-serve)")
		}
		dir := *stateDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "peas-soak-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		server := loadgen.ServerProc{
			Bin:             *serveBin,
			Addr:            *addr,
			StateDir:        dir,
			DrainBudget:     *drain,
			CheckpointEvery: *ckptEvery,
		}
		if *soakKill9 {
			server.DurableDelay = *durDelay
			kc := loadgen.Kill9Config{
				Server:   server,
				Cycles:   *cycles,
				Load:     cfg,
				KillSeed: *killSeed,
			}
			kc.Load.Mix.LongJobs = *longJobs
			kc.Load.Mix.PanicJobs = *panicJobs
			if *verbose {
				kc.Log = os.Stderr
				kc.Server.Log = os.Stderr
			}
			rep, err := loadgen.SoakKill9(ctx, kc)
			if err != nil {
				return err
			}
			report, pass = rep, rep.Pass
		} else {
			sc := loadgen.SoakConfig{
				Server: server,
				Cycles: *cycles,
				Load:   cfg,
			}
			sc.Load.Mix.LongJobs = *longJobs
			if *verbose {
				sc.Log = os.Stderr
				sc.Server.Log = os.Stderr
			}
			rep, err := loadgen.Soak(ctx, sc)
			if err != nil {
				return err
			}
			report, pass = rep, rep.Pass
		}
	} else {
		rep, err := loadgen.Run(ctx, *url, cfg)
		if err != nil {
			return err
		}
		report, pass = rep, rep.Pass
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(enc)
	}
	if !pass {
		return fmt.Errorf("SLO assertions failed (see report)")
	}
	return nil
}
