// Command peas-bench regenerates the paper's evaluation: every figure and
// table of §5 plus the §2-§4 analyses, printed as text tables.
//
// Usage:
//
//	peas-bench                  # everything, paper-scale (5 runs/point)
//	peas-bench -exp fig9        # one experiment
//	peas-bench -runs 1 -quick   # fast pass (1 run/point, coarser sweeps)
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering
// the whole invocation; see DESIGN.md §9.
//
// The experiment ids -exp accepts are those of peas.Experiments(); -h
// lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"peas"
	"peas/internal/buildinfo"
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
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "peas-bench:", err)
			}
		}()
	}
	if *memProfile != "" {
		// The "allocs" profile rather than "heap": cumulative allocation
		// sites show up even after their objects die.
		defer func() {
			f, err := os.Create(*memProfile)
			if err == nil {
				runtime.GC()
				err = pprof.Lookup("allocs").WriteTo(f, 0)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "peas-bench:", err)
			}
		}()
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
	// Timing goes to stderr: stdout carries only the tables, so it stays
	// deterministic and a -format csv stream stays valid CSV.
	fmt.Fprintf(os.Stderr, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
