// Command peas-bench regenerates the paper's evaluation: every figure and
// table of §5 plus the §2-§4 analyses, printed as text tables.
//
// Usage:
//
//	peas-bench                  # everything, paper-scale (5 runs/point)
//	peas-bench -exp fig9        # one experiment
//	peas-bench -runs 1 -quick   # fast pass (1 run/point, coarser sweeps)
//
// Regression gate (used by CI): runs a fixed deterministic scenario set
// and compares work counters (engine events, packets, wakeups), the
// allocation count (heap objects per scenario, gated at
// -allocs-tolerance, default 0: any increase beyond two objects of runtime
// slack fails; printed per executed event) and wall time (gated
// at -wall-tolerance, default 10%; negative makes it advisory) against a
// committed baseline.
//
//	peas-bench -quick -baseline BENCH_baseline.json -write-baseline
//	peas-bench -quick -baseline BENCH_baseline.json -tolerance 0.25
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering
// the whole invocation (gate or experiments); see DESIGN.md §9.
//
// The experiment ids -exp accepts are those of peas.Experiments(); -h
// lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"peas"
	"peas/internal/buildinfo"
	"peas/internal/perf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "peas-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	experiments := peas.Experiments()
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	validIDs := strings.Join(ids, ", ") + ", all"

	var (
		exp      = flag.String("exp", "all", "experiment id ("+validIDs+")")
		runs     = flag.Int("runs", 5, "independent runs per sweep point")
		seed     = flag.Int64("seed", 1, "root seed")
		quick    = flag.Bool("quick", false, "coarser sweeps for a fast pass")
		format   = flag.String("format", "text", "output format: text, csv, json or md")
		parallel = flag.Int("parallel", 0, "concurrent simulations per experiment (0 = all CPUs)")

		baseline  = flag.String("baseline", "", "regression-gate mode: baseline JSON to compare against (or write with -write-baseline)")
		tolerance = flag.Float64("tolerance", 0.25, "maximum allowed relative regression of a gate work counter")
		allocsTol = flag.Float64("allocs-tolerance", 0, "maximum allowed relative regression of a scenario's heap-object count (0 = any increase beyond two objects of runtime slack fails)")
		wallTol   = flag.Float64("wall-tolerance", 0.10, "maximum allowed relative wall-time regression (negative = advisory only)")
		writeBase = flag.Bool("write-baseline", false, "measure the gate scenarios and write -baseline instead of comparing")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("peas-bench"))
		return nil
	}

	if *cpuProfile != "" {
		stop, err := perf.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "peas-bench:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := perf.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "peas-bench:", err)
			}
		}()
	}

	if *baseline != "" {
		tol := gateTolerances{counters: *tolerance, allocs: *allocsTol, wall: *wallTol}
		return runGate(*baseline, tol, *writeBase, *quick)
	}

	emit := func(t *peas.Table) error {
		switch *format {
		case "text":
			fmt.Println(t)
			return nil
		case "csv":
			return t.WriteCSV(os.Stdout, true)
		case "json":
			return t.WriteJSON(os.Stdout)
		case "md", "markdown":
			return t.WriteMarkdown(os.Stdout)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}

	opts := peas.DefaultSweepOptions()
	opts.Runs = *runs
	opts.Seed = *seed
	opts.Parallel = *parallel
	env := &peas.ExperimentEnv{Options: opts, Quick: *quick}

	start := time.Now()
	matched := false
	for _, e := range experiments {
		if !strings.EqualFold(*exp, "all") && !strings.EqualFold(*exp, e.ID) {
			continue
		}
		matched = true
		t, err := e.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, validIDs)
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
