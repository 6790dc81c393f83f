package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"peas"
	"peas/internal/client"
	"peas/internal/jobqueue"
)

// An untraced run sets its workload up at least minSetups times, and up to
// maxSetups while the set-ups so far took under cheapSetups in total;
// setup_s is the median, so one slow process start does not decide it and
// a 70 ms set-up gets more repetitions than a 1.1 s one.
const (
	minSetups   = 3
	maxSetups   = 7
	cheapSetups = 3.0 // seconds
)

// bench is one invocation's settings and shared state.
type bench struct {
	decl    *declaration
	root    string
	outDir  string
	seed    int64
	seconds float64
	smoke   bool
	// regolden: this run rewrites golden.json, so it is not held to it.
	regolden bool
	// sizeDiv divides every deployment size (1, or 5 under -smoke).
	sizeDiv int
	// scale is seconds over the declared run_seconds: every fixed count
	// shrinks with it.
	scale float64

	serverBin    string
	serverBuildS float64
}

// result is what one workload's run (untraced or traced) produced.
type result struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Ops were attempted; FailedOps were refused, failed, timed out,
	// hash-mismatched or failed a fidelity or golden check.
	Ops       int `json:"ops"`
	FailedOps int `json:"failed_ops"`
	// Samples is the number of latency samples and Rounds the number of
	// rounds behind the timing metrics. PooledP50 and PooledTail are the
	// plain nearest-rank percentiles over all samples, kept for reference;
	// TailPercentile is the one PooledTail reports (below 90 only when
	// fewer than 10 samples would lie beyond p90, which a full-size run
	// never has).
	Samples        int     `json:"samples,omitempty"`
	Rounds         int     `json:"rounds,omitempty"`
	PooledP50      float64 `json:"pooled_job_ms_p50,omitempty"`
	PooledTail     float64 `json:"pooled_job_ms_tail,omitempty"`
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	// Digest folds the witnesses of all DigestOps ops in plan order; Golden
	// is "match", "mismatch" or "n/a".
	Digest     string `json:"digest,omitempty"`
	DigestOps  int    `json:"digest_ops,omitempty"`
	Golden     string `json:"golden,omitempty"`
	Resampled  int    `json:"resampled,omitempty"`
	FirstError string `json:"first_error,omitempty"`
	// StateFS is the filesystem type under the service's state dir.
	StateFS string             `json:"state_fs,omitempty"`
	Commit  string             `json:"server_commit,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes,omitempty"`
}

// fail counts n failed ops (a no-op for n == 0) and keeps the first message.
func (r *result) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	r.FailedOps += n
	if r.FirstError == "" {
		r.FirstError = fmt.Sprintf(format, args...)
	}
}

// environment is a workload set up and ready for its timed phase.
type environment struct {
	plan     *plan
	planTime time.Duration
	child    *childServer // nil for sim_* workloads
	cl       *client.Client
}

func (e *environment) close() error {
	if e == nil || e.child == nil {
		return nil
	}
	return e.child.stop()
}

// warmUp runs the plan's warm ops once, untimed, and fails on any error:
// a set-up that cannot complete would make every later number meaningless.
func warmUp(ctx context.Context, exec execFunc, warm []op, clients int) error {
	ph := drive(ctx, exec, warm, clients, nil)
	if ph.failed() > 0 {
		return fmt.Errorf("warm-up: %s", ph.firstError())
	}
	return nil
}

// setUp is everything setup_s covers: plan synthesis, and for a service
// workload state-dir creation and server start-to-healthy, then one
// warm-up pass.
func (b *bench) setUp(ctx context.Context, w *workload) (*environment, error) {
	p, planTime, err := w.timedPlan(b.seed, b.scale, b.sizeDiv)
	if err != nil {
		return nil, err
	}
	env := &environment{plan: p, planTime: planTime}
	if !w.service {
		return env, warmUp(ctx, simExec(peas.Run), p.warm, 1)
	}
	if env.child, err = startChild(ctx, b.serverBin, b.root); err != nil {
		return nil, err
	}
	env.cl = client.New(env.child.base)
	if err := warmUp(ctx, serviceExec(env.cl, jobqueue.OutcomeAccepted, nil), p.warm, serviceClients); err != nil {
		return nil, errors.Join(err, env.close())
	}
	return env, nil
}

func (b *bench) newResult(w *workload, traced bool) *result {
	return &result{Workload: w.name, Traced: traced, Seed: b.seed, Seconds: b.seconds, Metrics: map[string]float64{}}
}

// measure is the untraced run: set-up (several times, median), the timed
// phase of fixed work cut into rounds, then the correctness checks. It
// produces the end-to-end metrics.
func (b *bench) measure(ctx context.Context, w *workload) (res *result, err error) {
	res = b.newResult(w, false)
	round := scaled(w.round, b.scale)

	var env *environment
	var setups []float64
	another := func() bool {
		switch n := len(setups); {
		case b.smoke:
			return n < 1
		case n < minSetups:
			return true
		default:
			return n < maxSetups && sum(setups) < cheapSetups
		}
	}
	for another() {
		if err := env.close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if env, err = b.setUp(ctx, w); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { err = errors.Join(err, env.close()) }()

	ops := env.plan.ops[:w.rounds*round]
	// The process that simulates: this one for sim_*, peas-serve otherwise.
	pid, exec, clients := os.Getpid(), simExec(peas.Run), 1
	if w.service {
		pid, exec, clients = env.child.pid(), serviceExec(env.cl, w.outcome, nil), serviceClients
		res.StateFS = fsTypeOf(env.child.stateDir)
		if h, err := env.cl.Health(ctx); err == nil {
			res.Commit = h.Build.Commit
		}
	}
	// A mark at the end of every round: the time and the CPU used so far.
	var (
		mu       sync.Mutex
		marks    []roundMark
		probeErr error
	)
	probe := func(seq int, at time.Duration) {
		if seq%round != 0 {
			return
		}
		cpu, err := procCPUSeconds(pid)
		mu.Lock()
		marks = append(marks, roundMark{seq: seq, at: at, cpu: cpu})
		probeErr = errors.Join(probeErr, err)
		mu.Unlock()
	}
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	ph := drive(ctx, exec, ops, clients, probe)
	hwm, err := procMiB(pid, "VmHWM")
	if err = errors.Join(err, probeErr); err != nil {
		return nil, err
	}

	rounds := ph.rounds(round, cpu0, marks)
	lat := ph.latenciesMS()
	tailP, tailV := qualifyingTail(lat, 90)
	res.Ops, res.Samples, res.Rounds = len(ph.results), len(lat), len(rounds)
	res.PooledP50, res.PooledTail, res.TailPercentile = percentile(lat, 50), tailV, tailP
	res.fail(ph.failed(), "%s", ph.firstError())
	res.Metrics = map[string]float64{
		"setup_s":        median(setups),
		"events_per_s":   midRounds(rounds, func(r *roundStats) float64 { return r.eventsPerS }),
		"jobs_per_s":     midRounds(rounds, func(r *roundStats) float64 { return r.jobsPerS }),
		"job_ms_p50":     midRounds(rounds, func(r *roundStats) float64 { return r.p50MS }),
		"job_ms_p90":     midRounds(rounds, func(r *roundStats) float64 { return r.p90MS }),
		"cpu_ms_per_job": midRounds(rounds, func(r *roundStats) float64 { return r.cpuMSPerJob }),
		"peak_rss_mb":    hwm,
	}
	b.verify(w, ops, &ph, res)
	return res, nil
}

// traced is the separate traced run that produces the per-layer metrics.
// Every pass does the same fixed work (the first traceOps ops of the plan):
//
//	R  service_* only: the real peas-serve binary, for the process.* figures,
//	   the /metrics counters and the /healthz goroutine count;
//	A  spans off: direct runs, or the pool served in this process, unwrapped;
//	B  spans on: the same with every wrapper in place, under a CPU profile.
//
// trace.overhead_ratio is B's wall over A's, like for like. The kernels
// run last.
func (b *bench) traced(ctx context.Context, w *workload) (res *result, err error) {
	res = b.newResult(w, true)
	m := res.Metrics
	env, err := b.setUp(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer func() { err = errors.Join(err, env.close()) }()
	ops := env.plan.ops[:scaled(w.traceOps, b.scale)]
	m["loadgen.plan_ms"] = float64(env.planTime) / float64(time.Millisecond)
	m["build.peas_serve_s"] = b.serverBuildS

	if w.service {
		if err := b.passReal(ctx, w, env, ops, res); err != nil {
			return nil, err
		}
	} else {
		for _, name := range realPassMetrics {
			m[name] = 0 // no service process: these layers did no work
		}
	}

	// Pass A: spans off.
	phA, _, err := b.pass(ctx, w, env.plan, ops, nil)
	if err != nil {
		return nil, err
	}
	res.Ops += len(phA.results)
	res.fail(phA.failed(), "spans-off pass: %s", phA.firstError())

	// Pass B: spans on, profiled.
	tr := newTracer()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	phB, jobs, err := b.pass(ctx, w, env.plan, ops, tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	res.Ops += len(phB.results)
	res.fail(phB.failed(), "spans-on pass: %s", phB.firstError())

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	spans := b.layerMetrics(w, ops, &phB, jobs, tr, m)
	shares := layerShares(samples)
	for _, l := range profiledLayers {
		m[l+".cpu_share"] = shares[l]
	}
	m["runtime.gc_cpu_share"] = shares[gcLayer]
	events := float64(tr.events)
	m["runtime.allocs_per_event"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), events)
	m["runtime.alloc_bytes_per_event"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), events)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.peak_heap_mb"] = float64(ms1.HeapSys) / (1 << 20)
	m["trace.overhead_ratio"] = ratio(phB.wall.Seconds(), phA.wall.Seconds())
	m["trace.spans"] = float64(len(spans))

	kernels, err := runKernels(b.seed, b.sizeDiv, time.Duration(b.scale*float64(40*time.Millisecond)))
	if err != nil {
		return nil, err
	}
	for k, v := range kernels {
		m[k] = v
	}
	return res, writeTrace(b.outDir, w.name, spans)
}

// pass runs one in-process pass over ops: direct runs for sim_*, a fresh
// pool served on loopback (warmed the same way set-up warms the real one)
// for service_*. tr == nil is the spans-off pass. For a traced service
// pass it also returns the pool's own timestamps per job.
func (b *bench) pass(ctx context.Context, w *workload, p *plan, ops []op, tr *tracer) (phase, map[string]jobTimes, error) {
	if !w.service {
		run := runFunc(peas.Run)
		if tr != nil {
			run = tr.run
		}
		return drive(ctx, simExec(run), ops, 1, nil), nil, nil
	}
	srv, err := startLocal(b.root, tr)
	if err != nil {
		return phase{}, nil, err
	}
	cl := client.New(srv.base)
	if err := warmUp(ctx, serviceExec(cl, jobqueue.OutcomeAccepted, nil), p.warm, serviceClients); err != nil {
		return phase{}, nil, errors.Join(err, srv.stop())
	}
	var rec *recorder
	if tr != nil {
		tr.reset() // the warm-up's spans and counts are not the pass's
		rec = tr.rec
	}
	ph := drive(ctx, serviceExec(cl, w.outcome, rec), ops, serviceClients, nil)
	var jobs map[string]jobTimes
	if tr != nil {
		jobs = make(map[string]jobTimes, len(ph.results))
		for i := range ph.results {
			if j, ok := srv.pool.Get(ph.results[i].jobID); ok {
				enq, started, finished := j.Times()
				jobs[j.ID] = jobTimes{enq, started, finished}
			}
		}
	}
	return ph, jobs, srv.stop()
}

// jobTimes are the pool's own timestamps of one job (Job.Times).
type jobTimes struct{ enqueued, started, finished time.Time }

// realPassMetrics are the per-layer metrics only passReal can measure.
var realPassMetrics = []string{
	"process.server_cpu_s", "process.server_rss_end_mb", "process.server_write_bytes",
	"loadgen.client_cpu_share", "server.goroutines_end",
	"jobqueue.cache_hits", "jobqueue.cache_misses", "jobqueue.coalesced", "jobqueue.cache_evictions",
	"jobqueue.cache_hit_share", "jobqueue.runs_executed", "jobqueue.engine_events",
}

// procSnap is what /proc says about the server and this process at one
// instant. write_bytes comes from /proc/<pid>/io, which some sandboxes hide:
// ioErr then says why and writeBytes stays 0.
type procSnap struct {
	serverCPU, selfCPU, writeBytes float64
	ioErr                          error
}

func snapProcs(serverPID int) (s procSnap, err error) {
	if s.serverCPU, err = procCPUSeconds(serverPID); err != nil {
		return s, err
	}
	if s.selfCPU, err = procCPUSeconds(os.Getpid()); err != nil {
		return s, err
	}
	s.writeBytes, s.ioErr = procField(serverPID, "io", "write_bytes")
	return s, nil
}

// passReal drives the real binary over the traced ops and records what only
// a separate process can show: its CPU, resident set and disk writes from
// /proc, its counters from /metrics (as deltas over the pass, the warm-up
// excluded), and the goroutines it is left with.
func (b *bench) passReal(ctx context.Context, w *workload, env *environment, ops []op, res *result) error {
	m := res.Metrics
	pid := env.child.pid()
	res.StateFS = fsTypeOf(env.child.stateDir)
	before, err := scrape(ctx, env.cl)
	if err != nil {
		return err
	}
	p0, err := snapProcs(pid)
	if err != nil {
		return err
	}
	ph := drive(ctx, serviceExec(env.cl, w.outcome, nil), ops, serviceClients, nil)
	res.Ops += len(ph.results)
	res.fail(ph.failed(), "real-binary pass: %s", ph.firstError())
	p1, err := snapProcs(pid)
	if err != nil {
		return err
	}
	after, err := scrape(ctx, env.cl)
	if err != nil {
		return err
	}
	health, err := env.cl.Health(ctx)
	if err != nil {
		return err
	}
	res.Commit = health.Build.Commit
	rss, err := procMiB(pid, "VmRSS")
	if err != nil {
		return err
	}
	m["process.server_cpu_s"] = p1.serverCPU - p0.serverCPU
	m["process.server_rss_end_mb"] = rss
	m["process.server_write_bytes"] = p1.writeBytes - p0.writeBytes
	if ioErr := errors.Join(p0.ioErr, p1.ioErr); ioErr != nil {
		m["process.server_write_bytes"] = 0
		res.Notes = append(res.Notes, "process.server_write_bytes unavailable: "+ioErr.Error())
	}
	m["loadgen.client_cpu_share"] = ratio(p1.selfCPU-p0.selfCPU, ph.wall.Seconds())
	m["server.goroutines_end"] = float64(health.Goroutines)
	delta := func(name string) float64 { return after["peas_"+name] - before["peas_"+name] }
	hits, misses := delta("cache_hits"), delta("cache_misses")
	m["jobqueue.cache_hits"] = hits
	m["jobqueue.cache_misses"] = misses
	m["jobqueue.coalesced"] = delta("jobs_coalesced")
	m["jobqueue.cache_evictions"] = delta("cache_evictions")
	m["jobqueue.cache_hit_share"] = ratio(hits, hits+misses)
	m["jobqueue.runs_executed"] = delta("runs_executed")
	m["jobqueue.engine_events"] = delta("engine_events")
	return nil
}
