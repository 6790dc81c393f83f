package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// exactCounts are the per-layer metrics that count work rather than time
// it. Traced passes do fixed work, so they must repeat bit for bit between
// two runs of one commit at one seed; -compare insists on it.
var exactCounts = []string{
	"sim.events", "radio.packets_sent", "radio.packets_delivered", "radio.packets_collided",
	"core.wakeups", "core.probes_sent", "core.replies_sent", "coverage.samples",
	"forward.reports_generated", "forward.reports_delivered", "failure.injected",
	"checkpoint.captures", "checkpoint.bytes",
	"jobqueue.cache_hits", "jobqueue.cache_misses", "jobqueue.coalesced", "jobqueue.cache_evictions",
	"jobqueue.runs_executed", "jobqueue.engine_events",
	"durable.writes", "durable.fsyncs", "durable.removes", "durable.bytes_written",
	"server.requests", "server.rejected", "trace.spans",
}

// outputLine is the machine-readable last line the driver reads.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]outputValue `json:"metrics"`
}

type outputValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one workload's result: every declared metric by name with
// its unit, the op and sample counts, then the JSON line. It refuses a
// result whose metric names differ from the declared set, so the program
// and BENCHMARK.json cannot drift apart.
func report(w io.Writer, decl *declaration, res *result) error {
	declared := decl.metricsFor(res.Traced)
	line := outputLine{Correct: res.FailedOps == 0, Attempted: res.Ops, Failed: res.FailedOps,
		Metrics: make(map[string]outputValue, len(declared))}
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %g s)\n", res.Workload, kind, res.Seed, res.Seconds)
	for _, d := range declared {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		line.Metrics[d.Name] = outputValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for name := range res.Metrics {
		if _, ok := line.Metrics[name]; !ok {
			return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	fmt.Fprintf(w, "%-34s %16d (failed_ops %d, failed_share %g)\n", "ops", res.Ops, res.FailedOps, ratio(float64(res.FailedOps), float64(res.Ops)))
	if !res.Traced {
		fmt.Fprintf(w, "%-34s %16d in %d rounds (pooled over all samples: p50 %.6g ms, p%g %.6g ms; %d ops re-executed)\n",
			"latency_samples", res.Samples, res.Rounds, res.PooledP50, res.TailPercentile, res.PooledTail, res.Resampled)
		fmt.Fprintf(w, "%-34s %16s over %d ops, golden: %s\n", "digest", res.Digest[:min(16, len(res.Digest))], res.DigestOps, res.Golden)
	}
	if res.StateFS != "" {
		fmt.Fprintf(w, "%-34s %16s\n", "state_dir_fs", res.StateFS)
	}
	if res.StateFS == "tmpfs" {
		fmt.Fprintln(w, "note: the state dir is on tmpfs: every fsync figure is memory, not a disk")
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	if res.FirstError != "" {
		fmt.Fprintln(w, "first error:", res.FirstError)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(d metricDecl, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both files'
// values, how much worse the second is, the declared bound and a verdict:
// agree (not worse by more than the bound), exceeds, or n/a (missing or
// zero). Results of the same seed and run length must also agree on every
// exact count: the digest of an untraced run, the counted per-layer
// metrics of a traced one. It returns 1 on any exceeds or count mismatch.
// Run it both ways round to check that two runs of one commit repeat.
func compareFiles(decl *declaration, pathA, pathB string, stdout, stderr io.Writer) int {
	fa, err := readResults(pathA)
	if err == nil {
		var fb *resultFile
		if fb, err = readResults(pathB); err == nil {
			return compareResults(decl, fa, fb, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareResults(decl *declaration, fa, fb *resultFile, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, ra := range fa.Results {
		var rb *result
		for _, r := range fb.Results {
			if r.Workload == ra.Workload && r.Traced == ra.Traced {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		sameInputs := ra.Seed == rb.Seed && ra.Seconds == rb.Seconds
		if !ra.Traced {
			for _, d := range decl.EndToEnd {
				a, okA := ra.Metrics[d.Name]
				b, okB := rb.Metrics[d.Name]
				verdict, worse := "n/a", 0.0
				if okA && okB && a != 0 {
					worse, verdict = worseBy(d, a, b), "agree"
					if worse > d.Bound {
						verdict = "exceeds"
						bad++
					}
				}
				fmt.Fprintf(w, "%-20s %-16s %14.6g %14.6g %8.1f%% %6.0f%%  %s\n", ra.Workload, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
			}
			if rb.FailedOps > ra.FailedOps {
				fmt.Fprintf(w, "%-20s failed_ops rose from %d to %d: exceeds (any increase)\n", ra.Workload, ra.FailedOps, rb.FailedOps)
				bad++
			}
			if sameInputs && (ra.Digest != rb.Digest || ra.DigestOps != rb.DigestOps) {
				fmt.Fprintf(w, "%-20s digest differs: %.16s over %d ops vs %.16s over %d ops\n", ra.Workload, ra.Digest, ra.DigestOps, rb.Digest, rb.DigestOps)
				bad++
			}
			continue
		}
		if !sameInputs {
			continue
		}
		var differ []string
		for _, name := range exactCounts {
			if ra.Metrics[name] != rb.Metrics[name] {
				differ = append(differ, fmt.Sprintf("%s %g vs %g", name, ra.Metrics[name], rb.Metrics[name]))
			}
		}
		if len(differ) > 0 {
			fmt.Fprintf(w, "%-20s exact counts differ: %s\n", ra.Workload, strings.Join(differ, "; "))
			bad++
		} else {
			fmt.Fprintf(w, "%-20s %d exact counts identical\n", ra.Workload, len(exactCounts))
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
