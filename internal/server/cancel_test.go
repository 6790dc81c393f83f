package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"peas/internal/client"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/server"
	"peas/internal/server/api"
)

// slowRun wraps experiment.Run, stretching wall time (~2ms per coverage
// sample) so wall-clock actions — cancels, disconnects — reliably land
// mid-run instead of racing a microsecond-fast simulation.
func slowRun(rc experiment.RunConfig) (*experiment.RunStats, error) {
	orig := rc.OnSample
	rc.OnSample = func(simT float64, working int, cov []float64) {
		if orig != nil {
			orig(simT, working, cov)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return experiment.Run(rc)
}

// TestEndToEndCancelRunning drives DELETE /api/v1/jobs/{id} against a
// job caught mid-run: the response acknowledges the request, the job
// reaches the cancelled terminal state, and the SSE stream ends with a
// cancelled event.
func TestEndToEndCancelRunning(t *testing.T) {
	dir := t.TempDir()
	c, _, _ := startService(t, jobqueue.Config{
		Workers: 1, QueueDepth: 8, StateDir: dir, CheckpointEvery: 200,
		Run: slowRun,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := testSpec(501)
	spec.Horizon = 2000
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Job.ID

	// Wait until the run is demonstrably in flight (progress observed).
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == jobqueue.StateRunning && info.SimT > 0 {
			break
		}
		if info.State.Terminal() {
			t.Fatalf("job went terminal (%s) before the cancel could land", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cr, err := c.Cancel(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Requested {
		t.Error("first cancel of a running job should report requested=true")
	}
	if !cr.Job.CancelRequested {
		t.Error("JobInfo should reflect the pending cancel request")
	}

	info, err := c.Wait(ctx, id)
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("Wait = %v, want a cancellation error", err)
	}
	if info.State != jobqueue.StateCancelled {
		t.Fatalf("terminal state = %s, want cancelled", info.State)
	}

	// A second cancel is an idempotent no-op.
	cr2, err := c.Cancel(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if cr2.Requested {
		t.Error("cancel of a terminal job should report requested=false")
	}

	// The SSE stream of a terminal job replays the cancelled event.
	var final jobqueue.Event
	if err := c.Events(ctx, id, func(ev jobqueue.Event) bool {
		final = ev
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if final.Type != jobqueue.EventCancelled {
		t.Errorf("final SSE event = %s, want cancelled", final.Type)
	}

	// Unknown IDs 404.
	var apiErr *client.APIError
	if _, err := c.Cancel(ctx, "j-999999"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("cancel of unknown job = %v, want 404", err)
	}
}

// TestEndToEndDeadlineJob submits a job whose deadline expires mid-run
// and checks the wire view: deadline_exceeded state, the deadline echoed
// in JobInfo, and the deadline counter in /metrics.
func TestEndToEndDeadlineJob(t *testing.T) {
	dir := t.TempDir()
	c, _, _ := startService(t, jobqueue.Config{
		Workers: 1, QueueDepth: 8, StateDir: dir, CheckpointEvery: 200,
		WatchdogInterval: 10 * time.Millisecond,
		Run:              slowRun,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := testSpec(511)
	spec.Horizon = 2000
	spec.DeadlineSeconds = 0.05
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.DeadlineSeconds != 0.05 {
		t.Errorf("JobInfo.DeadlineSeconds = %v, want 0.05", resp.Job.DeadlineSeconds)
	}

	info, err := c.Wait(ctx, resp.Job.ID)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("Wait = %v, want a deadline error", err)
	}
	if info.State != jobqueue.StateDeadline {
		t.Fatalf("terminal state = %s, want deadline_exceeded", info.State)
	}

	metricsText, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsText, "peas_jobs_deadline_exceeded 1") {
		t.Error("metrics exposition missing peas_jobs_deadline_exceeded")
	}
}

// TestEndToEndDeadlineInfeasible429 primes the queue-wait histogram and
// a backlog so deadline-aware admission fast-rejects, and checks the
// client sees a retryable 429 with the deadline_infeasible code.
func TestEndToEndDeadlineInfeasible429(t *testing.T) {
	gate := make(chan struct{})
	c, _, pool := startService(t, jobqueue.Config{
		Workers: 1, QueueDepth: 8,
		BeforeRun: func(*jobqueue.Job) { <-gate },
	})
	defer close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One job holds the worker, one sits queued, and the histogram says
	// the median queue wait is 10s.
	if _, err := c.Submit(ctx, testSpec(521)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, testSpec(522)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		pool.QueueWait().Observe(10.0)
	}

	doomed := testSpec(523)
	doomed.DeadlineSeconds = 2
	_, err := c.Submit(ctx, doomed)
	var retryable *client.RetryableError
	if !errors.As(err, &retryable) {
		t.Fatalf("Submit = %v, want *RetryableError", err)
	}
	if retryable.Code != "deadline_infeasible" {
		t.Errorf("rejection code = %q, want deadline_infeasible", retryable.Code)
	}
	if retryable.RetryAfter <= 0 {
		t.Error("429 should carry a positive Retry-After")
	}
}

// TestSubmitBodyLimits covers the request hygiene of POST /api/v1/jobs:
// an oversized body is cut off with 413 and a spec with unknown fields
// is rejected with 400 (catching client/server schema drift).
func TestSubmitBodyLimits(t *testing.T) {
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4})
	pool.Start()
	ts := httptest.NewServer(server.New(pool, 1))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	})

	// 8MiB + slack of valid-prefix JSON: the reader must cut it off.
	huge := append([]byte(`{"network":{"N":40,"Seed":1},"horizon":`), bytes.Repeat([]byte(" "), 9<<20)...)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}

	// Unknown fields are schema drift, not silently-ignored extras.
	bad := strings.NewReader(`{"network":{"N":40,"Seed":1},"horizon":600,"deadline":5}`)
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json", bad)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field body status = %d, want 400", resp.StatusCode)
	}

	// The real field spelled correctly still works.
	good := strings.NewReader(`{"network":{"N":40,"Seed":1},"horizon":600,"deadlineSeconds":30}`)
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json", good)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("valid body status = %d, want 202", resp.StatusCode)
	}
}

// TestSubmitRefusesWhatCannotRun: a spec is refused at the door with a
// 400 that names what is wrong, before anything is persisted, when its
// kind is retired, when it asks for a fault (faults are not a spec's to
// ask for), when a configuration section is only partly filled —
// which would otherwise run with zeros in the fields left out — or when
// its coverage spacing is negative or makes too large a lattice.
func TestSubmitRefusesWhatCannotRun(t *testing.T) {
	dir := t.TempDir()
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	pool.Start()
	ts := httptest.NewServer(server.New(pool, 1))
	t.Cleanup(func() {
		ts.Close()
		_ = pool.Shutdown(context.Background())
	})

	const net = `"network":{"N":40,"Seed":1}`
	for _, tc := range []struct{ body, want string }{
		{`{"kind":"sweep",` + net + `}`, `unknown job kind "sweep"`},
		{`{` + net + `,"hang":true}`, `unknown field "hang"`},
		{`{` + net + `,"panic":true}`, `unknown field "panic"`},
		{`{` + net + `,"sweep":{}}`, `unknown field "sweep"`},
		{`{"network":{"N":40,"Seed":1,"Radio":{"LossRate":0.1}}}`, "Radio.BitsPerSecond"},
		{`{"network":{"N":40,"Seed":1,"Energy":{"IdleW":0.012}}}`, "Energy.TransmitW"},
		{`{"network":{"N":40,"Seed":1,"Protocol":{"ProbingRange":5}}}`, "initial rate"},
		{`{` + net + `,"coverageSpacing":0.001}`, "coverageSpacing"},
		{`{` + net + `,"coverageSpacing":-5}`, "coverageSpacing"},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: %d %q, want 400 naming %s", tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused submissions left %d files in the state dir", len(entries))
	}
}

// TestSSEDisconnectReleasesGoroutines proves a client that walks away
// from an event stream does not leak the server's streaming goroutines:
// after the disconnects, the process goroutine count converges back to
// its baseline.
func TestSSEDisconnectReleasesGoroutines(t *testing.T) {
	dir := t.TempDir()
	c, _, _ := startService(t, jobqueue.Config{
		Workers: 1, QueueDepth: 8, StateDir: dir, CheckpointEvery: 200,
		Run: slowRun,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := testSpec(531)
	spec.Horizon = 2000
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	// Open several streams and sever them mid-job.
	const streams = 8
	done := make(chan struct{}, streams)
	for i := 0; i < streams; i++ {
		streamCtx, streamCancel := context.WithCancel(ctx)
		go func() {
			defer func() { done <- struct{}{} }()
			_ = c.Events(streamCtx, resp.Job.ID, func(jobqueue.Event) bool { return true })
		}()
		time.AfterFunc(20*time.Millisecond, streamCancel)
	}
	for i := 0; i < streams; i++ {
		<-done
	}

	// Goroutine teardown is asynchronous (handler unwind, transport
	// close), so poll for convergence instead of asserting instantly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not converge: baseline %d, now %d", baseline, now)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The job itself is unharmed by its spectators vanishing.
	if _, err := c.Wait(ctx, resp.Job.ID); err != nil {
		t.Fatalf("job after SSE disconnects: %v", err)
	}

	// /healthz exposes the goroutine gauge the storm harness watches.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Goroutines <= 0 {
		t.Error("health response missing goroutine count")
	}
}
