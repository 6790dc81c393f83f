package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/client"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/node"
)

// witness is what one finished simulation is checked by: the bit-exact
// identity of its end state plus its exact work counters. A direct run and
// a service job of the same spec must produce the same witness.
type witness struct {
	Hash    string
	Events  uint64
	Packets uint64
	Wakeups uint64
	Samples int
}

// opResult is the record of one executed op.
type opResult struct {
	witness
	// err is empty for a verified op; anything else (refused, failed,
	// timed out, wrong outcome, wrong key) counts in failed_ops and leaves
	// the op without a latency figure.
	err string
	// start and end are offsets from the phase start.
	start, end time.Duration
	// lifetime3 is the 3-coverage lifetime (direct runs only; the
	// paper-fidelity check reads it).
	lifetime3 float64
	jobID     string
	// seq is the op's completion number within its phase, from 1.
	seq int
}

func (r *opResult) latencyMS() float64 { return float64(r.end-r.start) / float64(time.Millisecond) }

// execFunc executes op i and reports what happened; timestamps are filled
// in by drive.
type execFunc func(ctx context.Context, i int, o op) opResult

// runFunc is how a direct simulation is executed: peas.Run, or the
// tracer's instrumented wrapper around it.
type runFunc func(cfg experiment.RunConfig) (*experiment.RunStats, error)

func witnessOf(st *experiment.RunStats, hash string, events uint64) witness {
	return witness{Hash: hash, Events: events, Packets: st.PacketsSent, Wakeups: st.Wakeups, Samples: st.CoverageSamples}
}

// simulate runs one spec in this process and returns its witness. A
// positive checkpointEvery arms the periodic capture the way the pool does
// for a job with a state dir: the capture ticks are engine events, so a job's
// event count only matches a direct run that ticks at the same cadence (the
// end state is the same either way).
func simulate(run runFunc, spec *jobqueue.Spec, checkpointEvery float64) (opResult, error) {
	cfg := spec.RunConfig()
	if checkpointEvery > 0 {
		cfg.CheckpointEvery = checkpointEvery
		cfg.OnCheckpoint = func(*checkpoint.Snapshot) bool { return false }
	}
	var events uint64
	cfg.OnFinish = func(net *node.Network) { events = net.Engine.Executed() }
	st, err := run(cfg)
	if err != nil {
		return opResult{}, err
	}
	return opResult{
		witness:   witnessOf(st, st.FinalState.StateHashHex(), events),
		lifetime3: st.CoverageLifetime[2],
	}, nil
}

// simExec executes ops as direct library calls, the way the paper's sweeps
// and cmd/peas-bench do.
func simExec(run runFunc) execFunc {
	return func(_ context.Context, _ int, o op) opResult {
		r, err := simulate(run, o.spec, 0)
		if err != nil {
			return opResult{err: err.Error()}
		}
		return r
	}
}

func opKey(i int) string { return "op:" + strconv.Itoa(i) }

// serviceExec executes ops as jobs against a running service: submit,
// follow the job's SSE stream to its end, fetch the final job record. The
// stream is always read to EOF — never cut at the terminal event — so the
// keep-alive connection goes back to the pool instead of being torn down.
// client.Wait is not used: it polls on a 150 ms ticker and would quantise
// every latency.
func serviceExec(c *client.Client, want jobqueue.Outcome, rec *recorder) execFunc {
	return func(ctx context.Context, i int, o op) opResult {
		fail := func(stage string, err error) opResult {
			return opResult{err: fmt.Sprintf("%s: %v", stage, err)}
		}
		t0 := time.Now()
		resp, err := c.Submit(ctx, o.spec)
		t1 := time.Now()
		if err != nil {
			return fail("submit", err)
		}
		id := resp.Job.ID
		var last jobqueue.Event
		err = c.Events(ctx, id, func(ev jobqueue.Event) bool { last = ev; return true })
		t2 := time.Now()
		if err != nil {
			return fail("events", err)
		}
		info, err := c.Job(ctx, id)
		t3 := time.Now()
		if err != nil {
			return fail("get", err)
		}
		if rec != nil {
			key := opKey(i)
			rec.add("job", key, t0, t3)
			rec.add("client.submit", key, t0, t1)
			rec.add("client.follow", key, t1, t2)
			rec.add("client.get", key, t2, t3)
		}
		res := info.Result
		switch {
		case resp.Outcome != want:
			return fail("submit", fmt.Errorf("outcome %q, want %q", resp.Outcome, want))
		case last.Type != jobqueue.EventDone:
			return fail("events", fmt.Errorf("stream ended on %q event", last.Type))
		case info.State != jobqueue.StateDone || res == nil || res.Stats == nil || res.StateHash == "":
			return fail("get", fmt.Errorf("job %s in state %q without a full result: %s", id, info.State, info.Error))
		case info.Key != o.key:
			return fail("get", fmt.Errorf("job %s has key %.12s, planned %.12s", id, info.Key, o.key))
		}
		return opResult{witness: witnessOf(res.Stats, res.StateHash, res.Events), jobID: id}
	}
}

// phase is one driven stretch of a workload.
type phase struct {
	// results holds the executed ops, a prefix of the plan in plan order.
	results []opResult
	wall    time.Duration
}

// drive runs ops in plan order on `clients` closed-loop goroutines: each
// takes the next op only after its previous one completed, so a slower
// system is offered less load. The work is fixed: every op runs, however
// long it takes. onDone, when set, runs on the goroutine that completed an
// op, with the op's completion number (1-based) and completion time.
func drive(ctx context.Context, exec execFunc, ops []op, clients int, onDone func(seq int, at time.Duration)) phase {
	results := make([]opResult, len(ops))
	var next, done atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				start := time.Since(t0)
				var r opResult
				if err := ctx.Err(); err != nil {
					r = opResult{err: err.Error()}
				} else {
					r = exec(ctx, i, ops[i])
				}
				r.start, r.end = start, time.Since(t0)
				r.seq = int(done.Add(1))
				results[i] = r
				if onDone != nil {
					onDone(r.seq, r.end)
				}
			}
		}()
	}
	wg.Wait()
	return phase{results: results, wall: time.Since(t0)}
}

func (p *phase) failed() int {
	n := 0
	for i := range p.results {
		if p.results[i].err != "" {
			n++
		}
	}
	return n
}

func (p *phase) firstError() string {
	for i := range p.results {
		if e := p.results[i].err; e != "" {
			return fmt.Sprintf("op %d: %s", i, e)
		}
	}
	return ""
}

// latenciesMS returns the latencies of verified ops, ascending.
func (p *phase) latenciesMS() []float64 {
	out := make([]float64, 0, len(p.results))
	for i := range p.results {
		if p.results[i].err == "" {
			out = append(out, p.results[i].latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}

// roundMark is taken when a round's last op completes: the time and the
// simulating process's CPU seconds so far.
type roundMark struct {
	seq int
	at  time.Duration
	cpu float64
}

// roundStats are the figures of one round.
type roundStats struct {
	jobsPerS, eventsPerS float64
	p50MS, p90MS         float64
	cpuMSPerJob          float64
}

// rounds cuts the phase into rounds of `round` completions (in completion
// order, which with two clients is not plan order) and computes every
// timing figure round by round: rates and CPU from the marks taken at the
// round boundaries, latency percentiles by nearest rank over the round's
// verified ops. startCPU is the CPU reading at the phase start.
func (p *phase) rounds(round int, startCPU float64, marks []roundMark) []roundStats {
	sort.Slice(marks, func(i, j int) bool { return marks[i].seq < marks[j].seq })
	events, lat := make([]float64, len(marks)), make([][]float64, len(marks))
	for i := range p.results {
		if r := &p.results[i]; r.err == "" {
			k := (r.seq - 1) / round
			events[k] += float64(r.Events)
			lat[k] = append(lat[k], r.latencyMS())
		}
	}
	out := make([]roundStats, len(marks))
	prev := roundMark{cpu: startCPU}
	for k, m := range marks {
		sort.Float64s(lat[k])
		secs, jobs := (m.at - prev.at).Seconds(), float64(len(lat[k]))
		out[k] = roundStats{
			jobsPerS:    ratio(jobs, secs),
			eventsPerS:  ratio(events[k], secs),
			p50MS:       percentile(lat[k], 50),
			p90MS:       percentile(lat[k], 90),
			cpuMSPerJob: ratio((m.cpu-prev.cpu)*1e3, jobs),
		}
		prev = m
	}
	return out
}

// midRounds reduces one figure over the rounds to the run's number: the
// interquartile mean, i.e. the mean of the middle half of the rounds. Like
// a median it ignores the rounds a burst of interference spoiled (up to a
// quarter of them on either side), but it does not hinge on a single
// round, which matters where cost drifts from round to round
// (service_cold_small gets slower with every job it has served).
func midRounds(rounds []roundStats, field func(*roundStats) float64) float64 {
	v := make([]float64, len(rounds))
	for i := range rounds {
		v[i] = field(&rounds[i])
	}
	sort.Float64s(v)
	mid := v[len(v)/4 : len(v)-len(v)/4]
	return ratio(sum(mid), float64(len(mid)))
}
