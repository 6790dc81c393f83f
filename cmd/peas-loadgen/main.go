// Command peas-loadgen is the deterministic load generator of the
// simulation service. It synthesizes a seeded workload — job specs with a
// tunable duplicate-key ratio, an SSE-follow fraction and a chaos
// fraction — drives a peas-serve instance with it in closed-loop (fixed
// concurrency) or open-loop (fixed arrival rate) mode, and emits a
// machine-readable JSON report with pass/fail SLO assertions: zero lost
// jobs, hash consistency, and an observed cache-hit + coalesce rate within
// tolerance of the planned mix. It asserts correctness, not speed: latency
// and throughput belong to benchmark/run.sh. The drain, SIGKILL and
// cancellation soaks are Go tests of internal/loadgen (go test -run
// 'Soak|Serve|Storm' ./internal/loadgen/).
//
// Usage:
//
//	peas-loadgen -url http://127.0.0.1:8080 -jobs 200 -dup 0.3
//	peas-loadgen -mode open -rate 100 -follow 0.5
//
// Two invocations with the same -seed submit the identical multiset of
// content keys (the report's keyMultisetHash), which is what makes the
// observed duplicate rate assertable. The process exits 0 iff the report
// passes.
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
		url     = flag.String("url", "http://127.0.0.1:8080", "service base URL")
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

		// Drive mode.
		mode       = flag.String("mode", loadgen.ModeClosed, "closed (fixed concurrency) or open (fixed arrival rate)")
		conc       = flag.Int("concurrency", 8, "closed-loop concurrent submitters")
		rate       = flag.Float64("rate", 50, "open-loop arrival rate in jobs/s")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "per-job end-to-end budget")
		retries    = flag.Int("retries", 4, "max submit attempts per job on 429")

		// SLO gates.
		dupTol = flag.Float64("dup-tol", 0.02, "allowed |observed - planned| duplicate-rate deviation")
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
		},
		Mode:        *mode,
		Concurrency: *conc,
		Retry:       client.RetryPolicy{MaxAttempts: *retries},
		JobTimeout:  *jobTimeout,
		SLO:         loadgen.SLO{DuplicateRateTolerance: *dupTol},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := loadgen.Run(ctx, *url, cfg)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
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
	if !rep.Pass {
		return fmt.Errorf("SLO assertions failed (see report)")
	}
	return nil
}
