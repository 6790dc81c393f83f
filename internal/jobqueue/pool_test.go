package jobqueue

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peas/internal/chaos"
	"peas/internal/experiment"
	"peas/internal/node"
)

// testSpec is a deployment small enough that a full run takes tens of
// milliseconds but still exercises the whole engine.
func testSpec(seed int64) *Spec {
	return &Spec{
		Network:          node.DefaultConfig(40, seed),
		FailuresPer5000s: experiment.BaseFailuresPer5000,
		Horizon:          600,
	}
}

// directHash runs the spec in-process, bypassing the pool, and returns
// the final StateHash — the reference every cached/coalesced result
// must match.
func directHash(t *testing.T, spec *Spec) string {
	t.Helper()
	s := *spec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	stats, err := experiment.Run(s.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalState == nil {
		t.Fatal("direct run captured no final state")
	}
	return stats.FinalState.StateHashHex()
}

func waitResult(t *testing.T, j *Job) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s: %v", j.ID, err)
	}
	return res
}

func TestSpecKeyCanonicalization(t *testing.T) {
	// A minimal submission and one with the defaults spelled out mean
	// the same simulation, so they must share a content key.
	minimal := &Spec{Network: node.Config{N: 40, Seed: 3}, Horizon: 600}
	explicit := &Spec{Network: node.DefaultConfig(40, 3), Horizon: 600}
	for _, s := range []*Spec{minimal, explicit} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if minimal.Key() != explicit.Key() {
		t.Error("defaulted and explicit specs should share a key")
	}

	other := &Spec{Network: node.Config{N: 40, Seed: 4}, Horizon: 600}
	if err := other.Normalize(); err != nil {
		t.Fatal(err)
	}
	if other.Key() == minimal.Key() {
		t.Error("different seeds must not collide")
	}

	// An unresolved horizon normalizes to the explicit default.
	auto := &Spec{Network: node.Config{N: 40, Seed: 3}}
	if err := auto.Normalize(); err != nil {
		t.Fatal(err)
	}
	if auto.Horizon != experiment.DefaultHorizon(40) {
		t.Errorf("horizon = %v, want resolved default", auto.Horizon)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []*Spec{
		{}, // no N
		{Kind: "warp", Network: node.Config{N: 4}},    // unknown kind
		{Kind: KindChaos, Network: node.Config{N: 4}}, // chaos without plan
		{Kind: "sweep", Network: node.Config{N: 4}},   // a retired kind
	}
	for i, s := range cases {
		if err := s.Normalize(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// TestSingleflightAndCache is the end-to-end acceptance test: N
// concurrent submissions of one config execute exactly one underlying
// run, and every response carries the same StateHash as a direct
// in-process run.
func TestSingleflightAndCache(t *testing.T) {
	spec := testSpec(11)
	want := directHash(t, spec)

	var runs atomic.Int64
	pool := New(Config{
		Workers:    4,
		QueueDepth: 16,
		Run: func(cfg experiment.RunConfig) (*experiment.RunStats, error) {
			runs.Add(1)
			return experiment.Run(cfg)
		},
	})
	pool.Start()
	defer pool.Shutdown(context.Background())

	const submitters = 8
	var wg sync.WaitGroup
	jobs := make([]*Job, submitters)
	outcomes := make([]Outcome, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := *testSpec(11) // fresh copy per submitter
			j, outcome, err := pool.Submit(&s)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
			outcomes[i] = outcome
		}(i)
	}
	wg.Wait()

	for i, j := range jobs {
		if j == nil {
			t.Fatalf("submission %d did not yield a job", i)
		}
		res := waitResult(t, j)
		if res.StateHash != want {
			t.Errorf("submission %d (%s): hash %s, want %s", i, outcomes[i], res.StateHash, want)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("underlying runs = %d, want exactly 1", got)
	}

	// A later identical submission is a pure cache hit: done instantly,
	// same hash, still one run.
	s := *testSpec(11)
	j, outcome, err := pool.Submit(&s)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeCached {
		t.Errorf("outcome = %s, want %s", outcome, OutcomeCached)
	}
	if j.State() != StateDone {
		t.Errorf("cached job state = %s, want done", j.State())
	}
	if res := j.Result(); res == nil || res.StateHash != want {
		t.Errorf("cached result hash mismatch")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cache hit triggered a run: %d", got)
	}

	stats := pool.Stats()
	if stats.Counters["cache_hits"] == 0 {
		t.Error("no cache hits recorded")
	}
	if stats.Counters["runs_executed"] != 1 {
		t.Errorf("runs_executed = %d, want 1", stats.Counters["runs_executed"])
	}
}

// TestChaosJobRuns covers the chaos kind end to end: a scripted plan
// runs under the pool, reports fault counters, and its hash matches the
// direct run (chaos runs are deterministic per plan+seed).
func TestChaosJobRuns(t *testing.T) {
	plan := chaos.MixedPlan(800, 5)
	spec := &Spec{
		Network: node.DefaultConfig(40, 5),
		Horizon: 800,
		Chaos:   plan,
	}
	want := directHash(t, spec)

	pool := New(Config{Workers: 2, QueueDepth: 4})
	pool.Start()
	defer pool.Shutdown(context.Background())

	s := *spec
	j, _, err := pool.Submit(&s)
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, j)
	if res.StateHash != want {
		t.Errorf("chaos hash %s, want %s", res.StateHash, want)
	}
	if len(res.Chaos) == 0 {
		t.Error("chaos job reported no fault counters")
	}
}

// TestCheckJobArmsOracle verifies that Check jobs attach the invariant
// oracle and report a violation tally.
func TestCheckJobArmsOracle(t *testing.T) {
	spec := testSpec(41)
	spec.Check = true

	pool := New(Config{Workers: 1, QueueDepth: 4})
	pool.Start()
	defer pool.Shutdown(context.Background())

	j, _, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, j)
	if res.Violations != 0 {
		t.Errorf("healthy run reported %d violations", res.Violations)
	}
	if res.Events == 0 {
		t.Error("run reported no engine events")
	}
}

// TestEventStream checks the SSE-facing event feed: a subscriber sees
// started -> progress -> done in order, with monotonic progress.
func TestEventStream(t *testing.T) {
	pool := New(Config{Workers: 1, QueueDepth: 4})
	defer pool.Shutdown(context.Background())

	j, _, err := pool.Submit(testSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelSub := j.Subscribe()
	defer cancelSub()
	// Workers start only now: a job already past t = 0 when the stream
	// opens would greet it with a progress snapshot instead of a start.
	pool.Start()

	var sawStart, sawProgress, sawDone bool
	lastT := -1.0
	deadline := time.After(60 * time.Second)
	for !sawDone {
		select {
		case ev, ok := <-ch:
			if !ok {
				if !sawDone {
					t.Fatal("stream closed before done event")
				}
				break
			}
			switch ev.Type {
			case EventQueued, EventStarted:
				sawStart = true
			case EventProgress:
				sawProgress = true
				if ev.SimT < lastT {
					t.Errorf("progress went backwards: %v after %v", ev.SimT, lastT)
				}
				lastT = ev.SimT
			case EventDone:
				sawDone = true
				if ev.Result == nil || ev.Result.StateHash == "" {
					t.Error("done event carries no result hash")
				}
			case EventFailed:
				t.Fatalf("job failed: %s", ev.Error)
			}
		case <-deadline:
			t.Fatal("timed out waiting for events")
		}
	}
	if !sawStart || !sawProgress {
		t.Errorf("stream incomplete: start=%v progress=%v", sawStart, sawProgress)
	}
}

// TestSlowFollowerGetsTerminalEvent checks that a subscriber which reads
// nothing while progress overflows its buffer still finds the terminal
// event at the end of its stream.
func TestSlowFollowerGetsTerminalEvent(t *testing.T) {
	j := newJob("slow", "key", testSpec(1), time.Now())
	ch, cancelSub := j.Subscribe()
	defer cancelSub()
	for i := 1; i <= 100; i++ {
		j.observeProgress(progressStride*j.Spec.Horizon*float64(i), 20)
	}
	j.finish(StateDone, &Result{StateHash: "h"}, nil, time.Now())
	var events []Event
	for ev := range ch {
		events = append(events, ev)
	}
	if len(events) != subscriberBuffer || events[len(events)-1].Type != EventDone {
		t.Fatalf("stream of %d events ends with %q, want %d ending with %q",
			len(events), events[len(events)-1].Type, subscriberBuffer, EventDone)
	}
}

func TestSubmitValidatesEarly(t *testing.T) {
	pool := New(Config{Workers: 1, QueueDepth: 1})
	pool.Start()
	defer pool.Shutdown(context.Background())
	if _, _, err := pool.Submit(&Spec{}); err == nil {
		t.Fatal("invalid spec must be rejected at admission")
	}
	if _, _, err := pool.Submit(&Spec{Kind: "nope", Network: node.Config{N: 4}}); err == nil ||
		!strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("unknown kind: %v", err)
	}
}

// TestCacheEvictionConcurrent races many distinct submissions through a
// tiny cache: whatever the finish order, the count of evictions must be
// exactly inserts minus capacity and the cache must end at capacity, and
// so must the job table, read concurrently all along. Run under -race
// this also guards the eviction paths' locking.
func TestCacheEvictionConcurrent(t *testing.T) {
	const (
		submitters = 4
		perWorker  = 6
		cacheCap   = 4
	)
	pool := New(Config{Workers: 4, QueueDepth: submitters * perWorker, CacheCap: cacheCap})
	pool.Start()
	defer pool.Shutdown(context.Background())

	var wg sync.WaitGroup
	keys := make([][]string, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j, _, err := pool.Submit(testSpec(int64(1000 + w*perWorker + i)))
				if err != nil {
					t.Error(err)
					return
				}
				keys[w] = append(keys[w], j.Key)
				waitResult(t, j)
				if n := len(pool.Jobs()); n > cacheCap+submitters {
					t.Errorf("job table lists %d jobs, at most %d may be retained or live", n, cacheCap+submitters)
				}
			}
		}(w)
	}
	wg.Wait()
	// A job is retired just after it turns terminal, on its worker: wait
	// for the workers to return from the last settle.
	for deadline := time.Now().Add(10 * time.Second); pool.Stats().InFlight > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := len(pool.Jobs()); n != cacheCap {
		t.Errorf("job table lists %d jobs once all ended, want the cap %d", n, cacheCap)
	}

	distinct := make(map[string]struct{})
	cached := 0
	for _, ks := range keys {
		for _, k := range ks {
			if _, dup := distinct[k]; dup {
				continue
			}
			distinct[k] = struct{}{}
			if _, ok := pool.CachedResult(k); ok {
				cached++
			}
		}
	}
	if len(distinct) != submitters*perWorker {
		t.Fatalf("expected %d distinct keys, got %d", submitters*perWorker, len(distinct))
	}
	if cached != cacheCap {
		t.Errorf("%d keys still cached, want exactly the capacity %d", cached, cacheCap)
	}
	want := uint64(len(distinct) - cacheCap)
	if got := pool.Counters().Get("cache_evictions"); got != want {
		t.Errorf("cache_evictions = %d, want %d", got, want)
	}
}

// TestJobCostsNoForcedGCAndRetainsNoSnapshot pins the two things a job
// must not cost beyond its run: the pool forces no collection around it
// (runtime.MemStats.NumForcedGC stands still — only this test reads
// MemStats, production may not), and a finished job keeps its end state's
// hash, not the state. A retained job then costs its stats and event
// history — under 2 KB measured, where one pinned 160-node snapshot of
// this spec weighed about 70 KB. Warm-up jobs on both workers first grow
// the run storage the workers recycle, so both heap readings hold it, and
// storage that grows with every reuse shows as per-job growth.
func TestJobCostsNoForcedGCAndRetainsNoSnapshot(t *testing.T) {
	const warmup, jobs, perJobBytes = 4, 40, 16 << 10
	pool := New(Config{Workers: 2, QueueDepth: jobs, StateDir: t.TempDir()})
	pool.Start()
	defer pool.Shutdown(context.Background())

	specs := func(seed0 int64, n int) []*Spec {
		specs := make([]*Spec, n)
		for i := range specs {
			specs[i] = testSpec(seed0 + int64(i))
			specs[i].Network.N = 160
		}
		return specs
	}
	// run submits a copy of each spec, since Submit normalizes what it is
	// given, and waits for every result.
	run := func(specs []*Spec) []*Job {
		handles := make([]*Job, len(specs))
		for i, spec := range specs {
			s := *spec
			j, _, err := pool.Submit(&s)
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = j
		}
		for _, j := range handles {
			waitResult(t, j)
		}
		return handles
	}
	run(specs(600, warmup))

	measured := specs(700, jobs)
	var before, after, settled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	handles := run(measured)
	runtime.ReadMemStats(&after)
	if forced := after.NumForcedGC - before.NumForcedGC; forced != 0 {
		t.Errorf("%d forced collections across %d jobs, want 0: something on the job path calls runtime.GC", forced, jobs)
	}
	runtime.GC()
	runtime.ReadMemStats(&settled)
	if grew := int64(settled.HeapAlloc) - int64(before.HeapAlloc); grew > jobs*perJobBytes {
		t.Errorf("live heap grew %d bytes over %d finished jobs (%d per job), want under %d per job: the job table is pinning run state, or recycled run storage grows with every job",
			grew, jobs, grew/jobs, perJobBytes)
	}

	for i, j := range handles {
		res := j.Result()
		if res.Stats == nil || res.Stats.FinalState != nil {
			t.Fatalf("job %s: result stats %+v must be present with a nil FinalState", j.ID, res.Stats)
		}
		if want := directHash(t, measured[i]); res.StateHash != want {
			t.Errorf("job %s: StateHash %s, direct run %s", j.ID, res.StateHash, want)
		}
	}
}

// TestJobTableIsBounded: a terminal job leaves the job table once CacheCap
// newer jobs have ended, so a long stream of cache hits holds the table at
// CacheCap and the live heap flat. The oldest job's ID becomes unknown,
// while its result stays reachable by key.
func TestJobTableIsBounded(t *testing.T) {
	const cacheCap, rounds = 64, 20
	pool := New(Config{Workers: 1, QueueDepth: 4, CacheCap: cacheCap})
	pool.Start()
	defer pool.Shutdown(context.Background())

	spec := testSpec(801)
	first, _, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, first)

	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var base int64
	for i := 1; i <= rounds*cacheCap; i++ {
		s := *spec
		if _, outcome, err := pool.Submit(&s); err != nil || outcome != OutcomeCached {
			t.Fatalf("resubmission %d: %v, %v; want cached", i, outcome, err)
		}
		if n := len(pool.Jobs()); n > cacheCap {
			t.Fatalf("after %d cache hits the job table lists %d jobs, cap %d", i, n, cacheCap)
		}
		if i == cacheCap {
			base = heap()
		}
	}
	grew := heap() - base
	t.Logf("live heap grew %d bytes over the last %d cache hits", grew, (rounds-1)*cacheCap)
	if grew >= 64<<10 {
		t.Errorf("live heap grew %d bytes over %d cache hits past the first %d", grew, (rounds-1)*cacheCap, cacheCap)
	}

	if _, ok := pool.Get(first.ID); ok {
		t.Errorf("job %s is still found after %d newer jobs ended", first.ID, rounds*cacheCap)
	}
	if res, ok := pool.CachedResult(first.Key); !ok || res != first.Result() {
		t.Errorf("the evicted job's result is not reachable by its key")
	}
}
