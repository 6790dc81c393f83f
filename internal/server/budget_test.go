package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/server"
)

// TestHopAllocationBudgets holds seven hops of a job's life, each served
// through the handler into a recorder, to the heap objects and bytes one
// call costs, read once over hopCalls calls after a collection: a cold
// submission up to its admission (decode, key, the admission record
// appended and synced), the cancel of a queued job (its admission
// retired), a resubmission of a cached spec's bytes, a GET of a finished
// job, the event stream of a finished job, a /metrics scrape, and a live
// stream: opened on a queued job and ended by that job's cancel, whose
// cost it includes. Requests and recorders are built before each reading.
// The one worker is held at BeforeRun throughout and the watchdog never
// ticks, so nothing but the hop allocates while it is measured. A budget is the
// figure measured when it was set plus a small slack, and it is only
// ever lowered.
func TestHopAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a call allocates")
	}
	const hopCalls = 100
	budgets := map[string]struct {
		allocs float64
		bytes  uint64
	}{
		"cold submit":     {47, 9500},
		"cancel queued":   {21.5, 2000},
		"cached submit":   {22, 4100},
		"GET finished":    {16, 2300},
		"stream finished": {23, 2800},
		"metrics scrape":  {88, 6700},
		"stream live":     {52, 4300},
	}

	held, release := make(chan struct{}, 1), make(chan struct{})
	pool := jobqueue.New(jobqueue.Config{
		Workers: 1, QueueDepth: hopCalls, StateDir: t.TempDir(),
		WatchdogInterval: time.Hour,
		BeforeRun: func(j *jobqueue.Job) {
			if j.Summary.Seed == 2 {
				held <- struct{}{}
				<-release
			}
		},
		Run: func(experiment.RunConfig) (*experiment.RunStats, error) { return &experiment.RunStats{}, nil },
	})
	pool.Start()
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	})
	h := server.New(pool, 1)
	body := func(seed int64) []byte {
		b, err := json.Marshal(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Seed 1 runs and is cached, and its bytes hit it once, so the hop's
	// resubmissions are answered by digest. Seed 2 then holds the worker.
	cached, _, err := pool.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cached.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.SubmitJSON(body(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.Submit(testSpec(2)); err != nil {
		t.Fatal(err)
	}
	<-held

	// measure runs serve for each of calls calls and checks what one call
	// allocated, in objects and bytes, against the hop's budget.
	measure := func(hop string, calls int, serve func(i int)) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			serve(i)
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(calls)
		bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
		b := budgets[hop]
		t.Logf("%-15s %6.2f allocs %6d B per call (budget %g, %d)", hop, allocs, bytes, b.allocs, b.bytes)
		if allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%s: %.2f allocs and %d B per call, budget %g and %d B", hop, allocs, bytes, b.allocs, b.bytes)
		}
	}
	// serve measures reqs served into recorders, each answered with status,
	// and returns the recorders.
	serve := func(hop string, reqs []*http.Request, status int) []*httptest.ResponseRecorder {
		t.Helper()
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for i := range recs {
			recs[i] = httptest.NewRecorder()
		}
		measure(hop, len(reqs), func(i int) { h.ServeHTTP(recs[i], reqs[i]) })
		for _, rec := range recs {
			if rec.Code != status {
				t.Fatalf("%s: status %d (%s), want %d", hop, rec.Code, rec.Body, status)
			}
		}
		return recs
	}
	requests := func(method string, path func(i int) string, body func(i int) []byte) []*http.Request {
		reqs := make([]*http.Request, hopCalls)
		for i := range reqs {
			var b []byte
			if body != nil {
				b = body(i)
			}
			reqs[i] = httptest.NewRequest(method, path(i), bytes.NewReader(b))
		}
		return reqs
	}
	jobs := func(int) string { return "/api/v1/jobs" }

	cold := serve("cold submit", requests(http.MethodPost, jobs, func(i int) []byte { return body(int64(100 + i)) }),
		http.StatusAccepted)
	serve("cancel queued", requests(http.MethodDelete, func(i int) string { return cold[i].Header().Get("Location") }, nil),
		http.StatusAccepted)
	serve("cached submit", requests(http.MethodPost, jobs, func(int) []byte { return body(1) }), http.StatusOK)
	finished := "/api/v1/jobs/" + cached.ID
	serve("GET finished", requests(http.MethodGet, func(int) string { return finished }, nil), http.StatusOK)
	serve("stream finished", requests(http.MethodGet, func(int) string { return finished + "/events" }, nil), http.StatusOK)
	serve("metrics scrape", requests(http.MethodGet, func(int) string { return "/metrics" }, nil), http.StatusOK)

	// A live stream runs on its own goroutine. Once its first flush has
	// sent the queued event, a DELETE cancels the job, and the hop ends
	// when the stream has returned.
	live := make([]string, hopCalls)
	followers := make([]*follower, hopCalls)
	for i := range live {
		job, _, err := pool.Submit(testSpec(int64(300 + i)))
		if err != nil {
			t.Fatal(err)
		}
		live[i] = "/api/v1/jobs/" + job.ID
		followers[i] = &follower{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{}), ended: make(chan struct{})}
	}
	streams := requests(http.MethodGet, func(i int) string { return live[i] + "/events" }, nil)
	cancels := requests(http.MethodDelete, func(i int) string { return live[i] }, nil)
	cancelled := make([]*httptest.ResponseRecorder, hopCalls)
	for i := range cancelled {
		cancelled[i] = httptest.NewRecorder()
	}
	measure("stream live", hopCalls, func(i int) {
		f := followers[i]
		go f.serve(h, streams[i])
		<-f.flushed
		h.ServeHTTP(cancelled[i], cancels[i])
		<-f.ended
	})
	for i, f := range followers {
		if body := f.Body.String(); f.Code != http.StatusOK || cancelled[i].Code != http.StatusAccepted ||
			!strings.HasPrefix(body, "event: queued\n") || !strings.Contains(body, "event: cancelled\n") {
			t.Fatalf("live stream %d: status %d, cancel %d, stream %q", i, f.Code, cancelled[i].Code, body)
		}
	}
}

// follower records a stream served on its own goroutine: flushed closes at
// its first flush, ended once the handler has returned.
type follower struct {
	*httptest.ResponseRecorder
	flushed, ended chan struct{}
	wasFlushed     bool
}

func (f *follower) Flush() {
	f.ResponseRecorder.Flush()
	if !f.wasFlushed {
		f.wasFlushed = true
		close(f.flushed)
	}
}

func (f *follower) serve(h http.Handler, r *http.Request) {
	defer close(f.ended)
	h.ServeHTTP(f, r)
}
