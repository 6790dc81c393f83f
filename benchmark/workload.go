package main

import (
	"fmt"
	"math"
	"time"

	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/loadgen"
	"peas/internal/stats"
)

// op is one unit of benchmark work: a full simulation, run either in this
// process (sim_*) or submitted to peas-serve as a job (service_*). key is
// the spec's content address, computed while planning so that checking a
// response never costs the measured path a hash.
type op struct {
	spec *jobqueue.Spec
	key  string
}

// plan is everything a workload will ask of the program under test, a
// pure function of the benchmark seed.
type plan struct {
	// warm runs once per set-up, untimed: one run per deployment size for
	// sim_*, connection and code warm-up for cold service workloads, the
	// cache fill for service_cached.
	warm []op
	// ops are the timed operations in order.
	ops []op
}

// workload describes one benchmark workload. Work is fixed, never
// time-boxed: the counts below are what a run at the declared run_seconds
// does (sized so that the timed phase takes about that long at the commit
// that introduced the benchmark, on its box), and --seconds scales them in
// proportion. They never change with the code under test, so two commits
// compared by a later change do identical work, including on workloads
// whose cost per op depends on how many ops came before.
type workload struct {
	name    string
	service bool
	// rounds x round is the op count of the timed phase (--seconds scales
	// the round, not the number of rounds). Throughput and CPU metrics are
	// the median round; with at least 100 ops, 10 samples lie beyond p90.
	rounds, round int
	// traceOps is the op count of each traced pass (for service_cold_small,
	// enough to overflow the 1024-entry cache, so the eviction path shows
	// in the counters).
	traceOps int
	// outcome is the admission outcome every timed submission must get.
	outcome jobqueue.Outcome
	// synth builds the plan with n timed ops.
	synth func(seed int64, n, sizeDiv int) (*plan, error)
}

var (
	deployments  = []int{160, 320, 480, 640, 800}        // Figs. 9-11, Table 1
	failureRates = []float64{5.33, 16, 26.66, 37.33, 48} // Figs. 12-14, per 5000 s
)

// Seed-stream salts: each workload draws from its own stream so adding a
// workload never shifts another's inputs.
const (
	saltProtocol   = 0x70726f74
	saltForwarding = 0x666f7277
	saltColdSmall  = 0x736d616c
	saltColdFull   = 0x66756c6c
	saltCached     = 0x63616368
	saltWarm       = 0x7761726d
)

var workloads = []*workload{
	{
		name: "sim_protocol", rounds: 25, round: 5, traceOps: 25,
		synth: func(seed int64, n, sizeDiv int) (*plan, error) {
			mk := func(rng *stats.RNG, i int) (op, error) {
				return simOp(deployments[i%len(deployments)]/sizeDiv, rng.Int63(), experiment.BaseFailuresPer5000, false)
			}
			return simPlan(seed^saltProtocol, len(deployments), n, mk)
		},
	},
	{
		name: "sim_forwarding", rounds: 20, round: 5, traceOps: 25,
		synth: func(seed int64, n, sizeDiv int) (*plan, error) {
			mk := func(rng *stats.RNG, i int) (op, error) {
				return simOp(480/sizeDiv, rng.Int63(), failureRates[i%len(failureRates)], true)
			}
			return simPlan(seed^saltForwarding, 1, n, mk)
		},
	},
	{
		name: "service_cold_small", service: true, rounds: 36, round: 50, traceOps: 1100,
		outcome: jobqueue.OutcomeAccepted,
		synth: func(seed int64, n, _ int) (*plan, error) {
			return servicePlan(loadgen.Mix{Seed: seed ^ saltColdSmall, N: 40, Horizon: 600}, 16, n, false)
		},
	},
	{
		name: "service_cold_full", service: true, rounds: 20, round: 10, traceOps: 30,
		outcome: jobqueue.OutcomeAccepted,
		synth: func(seed int64, n, sizeDiv int) (*plan, error) {
			nodes := 320 / sizeDiv
			mix := loadgen.Mix{Seed: seed ^ saltColdFull, N: nodes, Horizon: experiment.DefaultHorizon(nodes)}
			return servicePlan(mix, 2, n, true)
		},
	},
	{
		name: "service_cached", service: true, rounds: 24, round: 1000, traceOps: 6000,
		outcome: jobqueue.OutcomeCached,
		synth: func(seed int64, n, _ int) (*plan, error) {
			const distinct = 256 // well inside -cache 1024: nothing is evicted
			fill, err := servicePlan(loadgen.Mix{Seed: seed ^ saltCached, N: 40, Horizon: 600}, 0, distinct, false)
			if err != nil {
				return nil, err
			}
			p := &plan{warm: fill.ops, ops: make([]op, n)}
			rng := stats.NewRNG(seed ^ saltCached ^ saltWarm)
			for i := range p.ops {
				p.ops[i] = fill.ops[rng.Intn(distinct)]
			}
			return p, nil
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled shrinks a scale-1 count for a shorter run, never below 1.
func scaled(count int, scale float64) int {
	return max(1, int(math.Ceil(float64(count)*scale)))
}

// simOp builds one direct-simulation op the way the paper's sweeps do: the
// default deployment for n nodes, default (exhaustion-long) horizon.
func simOp(n int, netSeed int64, failuresPer5000 float64, forwarding bool) (op, error) {
	spec := jobqueue.NewSimSpec(n, netSeed)
	spec.FailuresPer5000s = failuresPer5000
	spec.Forwarding = forwarding
	if err := spec.Normalize(); err != nil {
		return op{}, fmt.Errorf("benchmark: synthesized invalid spec: %w", err)
	}
	return op{spec: spec, key: spec.Key()}, nil
}

// simPlan draws warm-up ops from one seed stream and timed ops from
// another, so the warm-up count can change without moving the timed inputs.
func simPlan(seed int64, warm, n int, mk func(rng *stats.RNG, i int) (op, error)) (*plan, error) {
	p := &plan{warm: make([]op, warm), ops: make([]op, n)}
	for _, part := range []struct {
		ops []op
		rng *stats.RNG
	}{{p.warm, stats.NewRNG(seed ^ saltWarm)}, {p.ops, stats.NewRNG(seed)}} {
		for i := range part.ops {
			o, err := mk(part.rng, i)
			if err != nil {
				return nil, err
			}
			part.ops[i] = o
		}
	}
	return p, nil
}

// servicePlan synthesizes distinct job specs with the service's own load
// generator (no duplicates, no chaos jobs; every job is followed over
// SSE). The first warm items become the warm-up, the rest the timed ops.
// loadgen.Mix has no forwarding knob, so the full-lifetime workload turns
// it on afterwards and re-keys.
func servicePlan(mix loadgen.Mix, warm, n int, forwarding bool) (*plan, error) {
	mix.Jobs = warm + n
	mix.FollowFraction = 1
	items, err := loadgen.Plan(mix)
	if err != nil {
		return nil, err
	}
	ops := make([]op, len(items))
	for i, it := range items {
		if forwarding {
			it.Spec.Forwarding = true
			it.Key = it.Spec.Key()
		}
		ops[i] = op{spec: it.Spec, key: it.Key}
	}
	return &plan{warm: ops[:warm], ops: ops[warm:]}, nil
}

// timedPlan synthesizes a plan with room for the timed phase and the
// traced passes, and reports how long that took.
func (w *workload) timedPlan(seed int64, scale float64, sizeDiv int) (*plan, time.Duration, error) {
	n := max(w.rounds*scaled(w.round, scale), scaled(w.traceOps, scale))
	t0 := time.Now()
	p, err := w.synth(seed, n, sizeDiv)
	return p, time.Since(t0), err
}
