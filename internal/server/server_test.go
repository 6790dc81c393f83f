package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"peas/internal/client"
	"peas/internal/durable"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/node"
	"peas/internal/server"
	"peas/internal/server/api"
)

func testSpec(seed int64) *jobqueue.Spec {
	return &jobqueue.Spec{
		Network:          node.DefaultConfig(40, seed),
		FailuresPer5000s: experiment.BaseFailuresPer5000,
		Horizon:          600,
	}
}

func directHash(t *testing.T, spec *jobqueue.Spec) string {
	t.Helper()
	s := *spec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	stats, err := experiment.Run(s.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	return stats.FinalState.StateHashHex()
}

// startService boots a pool + HTTP server over httptest and returns a
// typed client plus the run counter.
func startService(t *testing.T, cfg jobqueue.Config) (*client.Client, *atomic.Int64, *jobqueue.Pool) {
	t.Helper()
	var runs atomic.Int64
	inner := cfg.Run
	cfg.Run = func(rc experiment.RunConfig) (*experiment.RunStats, error) {
		runs.Add(1)
		if inner != nil {
			return inner(rc)
		}
		return experiment.Run(rc)
	}
	pool := jobqueue.New(cfg)
	pool.Start()
	ts := httptest.NewServer(server.New(pool, cfg.Workers))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	})
	return client.New(ts.URL), &runs, pool
}

// metric returns the value of the unlabelled series name on a /metrics
// page, 0 when the page does not carry it (a counter never bumped).
func metric(page, name string) uint64 {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// TestEndToEndSingleflight is the acceptance test over the wire: N
// concurrent HTTP submissions of one config execute exactly one
// underlying experiment.Run, and every response carries the StateHash
// of a direct in-process run.
func TestEndToEndSingleflight(t *testing.T) {
	spec := testSpec(101)
	want := directHash(t, spec)

	c, runs, _ := startService(t, jobqueue.Config{Workers: 4, QueueDepth: 16})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const submitters = 6
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := *testSpec(101)
			resp, err := c.Submit(ctx, &s)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = resp.Job.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, id := range ids {
		info, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if info.Result == nil || info.Result.StateHash != want {
			t.Errorf("submission %d: hash mismatch (got %+v, want %s)", i, info.Result, want)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("underlying runs = %d, want exactly 1", got)
	}
	// The counters agree: every submission counted once, and all but the
	// first answered by the one run (coalesced) or its result (cached).
	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(page, "peas_jobs_submitted"); got != submitters {
		t.Errorf("peas_jobs_submitted = %d, want %d", got, submitters)
	}
	if got := metric(page, "peas_cache_hits") + metric(page, "peas_jobs_coalesced"); got != submitters-1 {
		t.Errorf("peas_cache_hits + peas_jobs_coalesced = %d, want %d", got, submitters-1)
	}

	// Resubmission after completion: served from cache with the same
	// hash, zero extra runs, and retrievable via /results/{key}.
	s := *testSpec(101)
	resp, err := c.Submit(ctx, &s)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != jobqueue.OutcomeCached {
		t.Errorf("outcome = %s, want cached", resp.Outcome)
	}
	if resp.Job.Result == nil || resp.Job.Result.StateHash != want {
		t.Error("cached submission lost the hash")
	}
	res, err := c.Result(ctx, resp.Job.Key)
	if err != nil {
		t.Fatalf("results endpoint: %v", err)
	}
	if res.StateHash != want {
		t.Errorf("results endpoint hash = %s, want %s", res.StateHash, want)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cache hit reran: %d", got)
	}

	// Metrics reflect the activity.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"peas_queue_depth", "peas_runs_executed 1", "peas_cache_hits",
		"# TYPE peas_engine_events counter", "# TYPE peas_engine_event_structs counter",
		"# TYPE peas_go_gc_cycles_total counter", "# TYPE peas_go_alloc_bytes_total counter"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// Nothing measured through process-wide allocation statistics: such a
	// figure is wrong with two workers and costs every job a collection.
	if strings.Contains(metrics, "allocs") {
		t.Errorf("metrics still carry an allocation figure:\n%s", metrics)
	}
}

// TestEndToEndBackpressure pins the HTTP admission contract: a full
// queue answers 429 with a Retry-After hint instead of blocking or
// silently dropping.
func TestEndToEndBackpressure(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c, _, _ := startService(t, jobqueue.Config{
		Workers:    1,
		QueueDepth: 1,
		BeforeRun: func(*jobqueue.Job) {
			once.Do(func() { close(started) })
			<-release
		},
	})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.Submit(ctx, testSpec(201)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := c.Submit(ctx, testSpec(202)); err != nil {
		t.Fatal(err)
	}

	_, err := c.Submit(ctx, testSpec(203))
	var retryable *client.RetryableError
	if !errors.As(err, &retryable) {
		t.Fatalf("overflow submit: got %v, want RetryableError", err)
	}
	if retryable.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", retryable.RetryAfter)
	}

	// Identical specs still coalesce while the queue is full.
	resp, err := c.Submit(ctx, testSpec(201))
	if err != nil {
		t.Fatalf("coalesce at full queue: %v", err)
	}
	if resp.Outcome != jobqueue.OutcomeCoalesced {
		t.Errorf("outcome = %s, want coalesced", resp.Outcome)
	}
}

// TestEndToEndSSE follows a job's event stream over real HTTP.
func TestEndToEndSSE(t *testing.T) {
	c, _, _ := startService(t, jobqueue.Config{Workers: 1, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A 40-node job can finish before the stream opens, and a late
	// subscriber is replayed the terminal snapshot alone. So a full-lifetime
	// job holds the only worker until the subscriber is attached to the
	// queued job behind it.
	blocker, err := c.Submit(ctx, &jobqueue.Spec{
		Network:          node.DefaultConfig(480, 300),
		FailuresPer5000s: experiment.BaseFailuresPer5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Submit(ctx, testSpec(301))
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	var final jobqueue.Event
	err = c.Events(ctx, resp.Job.ID, func(ev jobqueue.Event) bool {
		switch ev.Type {
		case jobqueue.EventQueued:
			if _, err := c.Cancel(ctx, blocker.Job.ID); err != nil {
				t.Errorf("cancel blocker: %v", err)
			}
		case jobqueue.EventProgress:
			progress++
		case jobqueue.EventDone, jobqueue.EventFailed:
			final = ev
		}
		return true
	})
	if err != nil {
		t.Fatalf("event stream: %v", err)
	}
	if final.Type != jobqueue.EventDone {
		t.Fatalf("final event = %+v", final)
	}
	if final.Result == nil || final.Result.StateHash == "" {
		t.Error("done event carries no state hash")
	}
	if progress == 0 {
		t.Error("no progress events observed")
	}
}

// TestEndToEndHealthAndErrors covers /healthz and error mapping.
func TestEndToEndHealthAndErrors(t *testing.T) {
	c, runs, pool := startService(t, jobqueue.Config{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 {
		t.Errorf("health = %+v", h)
	}
	if h.Build.GoVersion == "" {
		t.Error("health response missing build identity")
	}

	if _, err := c.Job(ctx, "j-999999"); err == nil {
		t.Error("missing job should 404")
	}
	var apiErr *client.APIError
	if _, err := c.Job(ctx, "j-999999"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("missing job error = %v", err)
	}

	// Invalid spec -> 400 with the validation message.
	if _, err := c.Submit(ctx, &jobqueue.Spec{}); err == nil ||
		!strings.Contains(err.Error(), "must be positive") {
		t.Errorf("invalid spec error = %v", err)
	}

	// A spec followed by a second value is refused whole: 400, nothing
	// admitted, nothing run. The client cannot send such a body, so it
	// goes raw through a second front end over the same pool.
	ts := httptest.NewServer(server.New(pool, 2))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"network":{"N":20,"Seed":1}}{"kind":"chaos"} trailing garbage`))
	if err != nil {
		t.Fatal(err)
	}
	var rej api.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&rej)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(rej.Error, "data after the job spec") {
		t.Errorf("trailing data: %d %q, want 400 naming the trailing data", resp.StatusCode, rej.Error)
	}
	if jobs, err := c.Jobs(ctx); err != nil || len(jobs) != 0 || runs.Load() != 0 {
		t.Errorf("trailing data admitted something: jobs=%v err=%v runs=%d", jobs, err, runs.Load())
	}
}

// TestEndToEndSSELateSubscriber attaches to a job's event stream after
// the job has already completed: the subscriber must immediately
// receive the terminal snapshot event (with the result hash) and see
// the stream close, not hang waiting for live events that will never
// come.
func TestEndToEndSSELateSubscriber(t *testing.T) {
	c, _, _ := startService(t, jobqueue.Config{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := testSpec(71)
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, resp.Job.ID); err != nil {
		t.Fatal(err)
	}

	// The job is terminal; only now does the subscriber show up. Bound
	// the whole stream tightly: a correct server answers with the
	// snapshot and closes at once.
	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	defer scancel()
	var events []jobqueue.Event
	err = c.Events(sctx, resp.Job.ID, func(ev jobqueue.Event) bool {
		events = append(events, ev)
		return true
	})
	if err != nil {
		t.Fatalf("late subscription did not close cleanly: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("late subscriber saw %d events, want exactly the terminal snapshot", len(events))
	}
	ev := events[0]
	if ev.Type != jobqueue.EventDone {
		t.Fatalf("late subscriber saw %q, want %q", ev.Type, jobqueue.EventDone)
	}
	if ev.Result == nil || ev.Result.StateHash == "" {
		t.Error("terminal snapshot event carries no result hash")
	}

	// Same thing once more — replays must not be one-shot.
	var again []jobqueue.Event
	if err := c.Events(sctx, resp.Job.ID, func(ev jobqueue.Event) bool {
		again = append(again, ev)
		return true
	}); err != nil || len(again) != 1 || again[0].Type != jobqueue.EventDone {
		t.Fatalf("second late subscription: err=%v events=%d", err, len(again))
	}
}

// TestEndToEndPersistFailure503 pins the admission-durability contract
// over the wire: when the state store cannot sync the admission, the
// submission is rejected as retryable (503 + Retry-After) rather than
// accepted without crash recovery, and once the disk recovers the same
// spec goes through.
func TestEndToEndPersistFailure503(t *testing.T) {
	ffs := durable.NewFaultFS(nil)
	ffs.FailWrites(syscall.ENOSPC)
	c, _, _ := startService(t, jobqueue.Config{
		Workers: 1, QueueDepth: 4, StateDir: t.TempDir(), FS: ffs,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	_, err := c.Submit(ctx, testSpec(201))
	var retryable *client.RetryableError
	if !errors.As(err, &retryable) {
		t.Fatalf("submit under ENOSPC: err = %v, want retryable 503", err)
	}
	if !strings.Contains(retryable.Message, "cannot log job admission") {
		t.Errorf("error does not name the persistence failure: %q", retryable.Message)
	}
	if retryable.RetryAfter <= 0 {
		t.Errorf("503 carried no Retry-After hint")
	}

	// The disk recovers: SubmitWithRetry (which retries retryable
	// rejections) now lands the job.
	ffs.Reset()
	resp, err := c.SubmitWithRetry(ctx, testSpec(201), client.RetryPolicy{MaxAttempts: 3})
	if err != nil {
		t.Fatalf("submit after disk recovery: %v", err)
	}
	if _, err := c.Wait(ctx, resp.Job.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitDuringDrain503: a submission that reaches a draining pool is
// refused as the server's condition — 503, Retry-After and the
// shutting_down code — not as a 400 that clients treat as permanent.
func TestSubmitDuringDrain503(t *testing.T) {
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4})
	pool.Start()
	ts := httptest.NewServer(server.New(pool, 1))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(testSpec(301))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carried no Retry-After header")
	}
	var rej api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Code != api.CodeShuttingDown {
		t.Errorf("code %q, want %q", rej.Code, api.CodeShuttingDown)
	}
}

// TestEndToEndHealthQuarantine: a damaged persisted job is surfaced on
// /healthz as a quarantine count while the service reports healthy and
// keeps serving.
func TestEndToEndHealthQuarantine(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j-000001.spec.json"), []byte("not a durable frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	if _, err := pool.Recover(); err != nil {
		t.Fatalf("Recover over damage must not error: %v", err)
	}
	pool.Start()
	ts := httptest.NewServer(server.New(pool, 1))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h, err := client.New(ts.URL).Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q: quarantined damage must not mark the service unhealthy", h.Status)
	}
	if h.JobsQuarantined != 1 {
		t.Errorf("jobsQuarantined = %d, want 1", h.JobsQuarantined)
	}
	if h.JobsRecovered != 0 {
		t.Errorf("jobsRecovered = %d, want 0", h.JobsRecovered)
	}
}
