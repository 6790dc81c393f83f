package main

// Benchmark regression gate.
//
// The primary regression metrics are deterministic quantities of a fixed
// scenario set: the work counters (engine events executed, packets
// broadcast, protocol wakeups) and the allocation rate (heap objects
// allocated per executed event). All are pure functions of (config, seed)
// — the simulator is single-threaded, so the allocation count of its own
// code is exactly reproducible — which lets the gate hold the allocation
// count to a zero regression budget, give or take the couple of objects the
// runtime itself allocates in the measured window now and then (allocSlack).
// Wall time is noisier: it is gated with its own, wider
// tolerance (and CI relaxes it further for shared runners; see
// .github/workflows/ci.yml), so the hard signal comes from the
// deterministic metrics.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"peas"
	"peas/internal/perf"
)

type gateMetrics struct {
	// Deterministic counters: identical for identical behavior.
	Events  uint64 `json:"events"`
	Packets uint64 `json:"packets"`
	Wakeups uint64 `json:"wakeups"`
	// CoverageSamples counts the periodic K-coverage observations the run
	// recorded; the incremental coverage engine must not change how often
	// (or whether) the lattice is sampled, only what each sample costs.
	CoverageSamples uint64 `json:"coverage_samples"`
	// Allocs is the number of heap objects allocated during the run
	// (network construction included); AllocsPerEvent divides it by Events
	// for reading. The count is what -allocs-tolerance (default 0) gates.
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// WallNS is gated at -wall-tolerance, separately from the counters.
	WallNS int64 `json:"wall_ns"`
}

type gateBaseline struct {
	// Mode records whether the baseline was measured with -quick; the
	// scenario horizons differ, so comparing across modes is meaningless.
	Mode      string                 `json:"mode"`
	Scenarios map[string]gateMetrics `json:"scenarios"`
}

type gateScenario struct {
	name string
	cfg  peas.RunConfig
}

// gateScenarios is the fixed workload set. Horizons are explicit (never
// the deployment-proportional default) so the work counted is pinned.
func gateScenarios(quick bool) []gateScenario {
	h := func(full, short float64) float64 {
		if quick {
			return short
		}
		return full
	}
	protocol := peas.DefaultRunConfig(160, 1)
	protocol.Forwarding = false
	protocol.FailuresPer5000s = 0
	protocol.Horizon = h(4000, 1500)

	baseline := peas.DefaultRunConfig(320, 2)
	baseline.Horizon = h(3000, 1200)

	failures := peas.DefaultRunConfig(480, 3)
	failures.FailuresPer5000s = 26.66
	failures.Horizon = h(2500, 1000)

	return []gateScenario{
		{"protocol-160", protocol},
		{"baseline-320", baseline},
		{"failures-480", failures},
	}
}

func measureGate(quick bool) (*gateBaseline, error) {
	mode := "full"
	if quick {
		mode = "quick"
	}
	out := &gateBaseline{Mode: mode, Scenarios: map[string]gateMetrics{}}
	// Each scenario runs gateRepeats times: wall time and allocation count
	// are taken as the minimum across repeats (the noise floor — scheduler
	// preemption and lazy runtime initialization only ever add), while the
	// work counters must be bit-identical on every repeat, which doubles as
	// a free determinism check.
	const gateRepeats = 3
	for _, sc := range gateScenarios(quick) {
		var m gateMetrics
		for rep := 0; rep < gateRepeats; rep++ {
			cfg := sc.cfg
			var net *peas.Network
			cfg.OnNetwork = func(n *peas.Network) { net = n }
			var meter perf.AllocMeter
			meter.Start()
			start := time.Now()
			res, err := peas.Run(cfg)
			wall := time.Since(start).Nanoseconds()
			allocs := meter.Allocs()
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.name, err)
			}
			cur := gateMetrics{
				Events:          net.Engine.Executed(),
				Packets:         res.PacketsSent,
				Wakeups:         res.Wakeups,
				CoverageSamples: uint64(res.CoverageSamples),
			}
			if rep == 0 {
				m = cur
				m.Allocs = allocs
				m.WallNS = wall
			} else {
				if cur != (gateMetrics{Events: m.Events, Packets: m.Packets, Wakeups: m.Wakeups, CoverageSamples: m.CoverageSamples}) {
					return nil, fmt.Errorf("scenario %s is non-deterministic: repeat %d counted (%d, %d, %d, %d), first run (%d, %d, %d, %d)",
						sc.name, rep, cur.Events, cur.Packets, cur.Wakeups, cur.CoverageSamples, m.Events, m.Packets, m.Wakeups, m.CoverageSamples)
				}
				if allocs < m.Allocs {
					m.Allocs = allocs
				}
				if wall < m.WallNS {
					m.WallNS = wall
				}
			}
			// Settle pooled garbage before the next measurement so its
			// allocation count starts clean.
			runtime.GC()
		}
		if m.Events > 0 {
			m.AllocsPerEvent = float64(m.Allocs) / float64(m.Events)
		}
		out.Scenarios[sc.name] = m
		fmt.Printf("%-14s events=%-9d packets=%-8d wakeups=%-7d covsamples=%-5d allocs/event=%-7.3f wall=%s\n",
			sc.name, m.Events, m.Packets, m.Wakeups, m.CoverageSamples, m.AllocsPerEvent,
			time.Duration(m.WallNS).Round(time.Millisecond))
	}
	return out, nil
}

// gateTolerances bundles the per-metric regression budgets.
type gateTolerances struct {
	counters float64 // events/packets/wakeups
	allocs   float64 // heap objects (0 = any increase beyond allocSlack fails)
	wall     float64 // wall time (negative = advisory only)
}

// allocSlack is how many heap objects a scenario may allocate beyond its
// budget without failing. The model's own count is exact, but the Mallocs
// delta it is read from also sees the runtime's: about one run in five,
// the minimum of three repeats still carried one stray object (6120 against
// a baseline of 6119), which a ratio held to zero tolerance turned into a
// failure. Comparing the integer with two objects of slack cannot hide a
// regression: one more allocation per node or per event is hundreds.
const allocSlack = 2

// runGate measures the scenario set and either writes the baseline file
// (write=true) or compares against it, returning an error if any gated
// metric regressed beyond its tolerance.
func runGate(path string, tol gateTolerances, write, quick bool) error {
	current, err := measureGate(quick)
	if err != nil {
		return err
	}
	if write {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("baseline written to %s (mode=%s)\n", path, current.Mode)
		return nil
	}

	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline (generate one with -write-baseline): %w", err)
	}
	var base gateBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if base.Mode != current.Mode {
		return fmt.Errorf("baseline %s was measured in %s mode, this run is %s mode; match the -quick flag or regenerate with -write-baseline",
			path, base.Mode, current.Mode)
	}

	names := make([]string, 0, len(base.Scenarios))
	for name := range base.Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions []string
	for _, name := range names {
		b := base.Scenarios[name]
		c, ok := current.Scenarios[name]
		if !ok {
			return fmt.Errorf("scenario %s is in the baseline but no longer measured; regenerate with -write-baseline", name)
		}
		check := func(metric string, baseV, curV, tolerance float64) {
			if baseV == 0 {
				return // metric absent from an older baseline
			}
			ratio := curV / baseV
			switch {
			case ratio > 1+tolerance:
				regressions = append(regressions, fmt.Sprintf(
					"%s %s: %g -> %g (%+.1f%%, limit %+.0f%%)",
					name, metric, baseV, curV, 100*(ratio-1), 100*tolerance))
			case ratio < 1-tolerance && tolerance > 0:
				fmt.Printf("note: %s %s improved %g -> %g (%.1f%%); consider refreshing the baseline\n",
					name, metric, baseV, curV, 100*(ratio-1))
			}
		}
		check("events", float64(b.Events), float64(c.Events), tol.counters)
		check("packets", float64(b.Packets), float64(c.Packets), tol.counters)
		check("wakeups", float64(b.Wakeups), float64(c.Wakeups), tol.counters)
		check("coverage-samples", float64(b.CoverageSamples), float64(c.CoverageSamples), tol.counters)
		if b.Allocs > 0 {
			limit := uint64(float64(b.Allocs)*(1+tol.allocs)) + allocSlack
			switch {
			case c.Allocs > limit:
				regressions = append(regressions, fmt.Sprintf(
					"%s allocs: %d -> %d (%.3f -> %.3f per event; limit %d = %+.0f%% and %d objects of runtime slack)",
					name, b.Allocs, c.Allocs, b.AllocsPerEvent, c.AllocsPerEvent, limit, 100*tol.allocs, allocSlack))
			case tol.allocs > 0 && float64(c.Allocs) < float64(b.Allocs)*(1-tol.allocs):
				fmt.Printf("note: %s allocs improved %d -> %d; consider refreshing the baseline\n",
					name, b.Allocs, c.Allocs)
			}
		}
		if b.WallNS > 0 {
			ratio := float64(c.WallNS) / float64(b.WallNS)
			if tol.wall < 0 {
				if ratio > 1.10 {
					fmt.Printf("note: %s wall time %.2fx baseline (advisory only)\n", name, ratio)
				}
			} else if ratio > 1+tol.wall {
				regressions = append(regressions, fmt.Sprintf(
					"%s wall time: %s -> %s (%.2fx, limit %+.0f%%)",
					name, time.Duration(b.WallNS).Round(time.Millisecond),
					time.Duration(c.WallNS).Round(time.Millisecond), ratio, 100*tol.wall))
			}
		}
	}
	for name := range current.Scenarios {
		if _, ok := base.Scenarios[name]; !ok {
			return fmt.Errorf("scenario %s has no baseline entry; regenerate with -write-baseline", name)
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return fmt.Errorf("%d benchmark metric(s) regressed beyond tolerance", len(regressions))
	}
	fmt.Printf("bench gate: OK (%d scenarios vs %s; counters within %.0f%%, allocs within %.0f%% + %d objects, wall within %.0f%%)\n",
		len(names), path, 100*tol.counters, 100*tol.allocs, allocSlack, 100*tol.wall)
	return nil
}
