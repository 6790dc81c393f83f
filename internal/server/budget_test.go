package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/server"
)

// TestHopAllocationBudgets holds four hops of a job's life, each served
// through the handler into a recorder, to the heap objects and bytes one
// call costs, read once over hopCalls calls after a collection: a cold
// submission up to its admission (decode, key, the admission record
// appended and synced), the cancel of a queued job (its admission
// retired), a resubmission of a cached spec's bytes, and a /metrics
// scrape. Requests and recorders are built before each reading. The one
// worker is held at BeforeRun throughout and the watchdog never ticks, so
// nothing but the hop allocates while it is measured. A budget is the
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
		"cold submit":    {50, 9700},
		"cancel queued":  {21.5, 2000},
		"cached submit":  {25, 4300},
		"metrics scrape": {88, 6700},
	}

	held, release := make(chan struct{}, 1), make(chan struct{})
	pool := jobqueue.New(jobqueue.Config{
		Workers: 1, QueueDepth: hopCalls, StateDir: t.TempDir(),
		WatchdogInterval: time.Hour,
		BeforeRun: func(j *jobqueue.Job) {
			if j.Spec.Network.Seed == 2 {
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

	// measure serves reqs and returns what one call allocated, in objects
	// and bytes, and the recorders.
	measure := func(hop string, reqs []*http.Request, status int) []*httptest.ResponseRecorder {
		t.Helper()
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for i := range recs {
			recs[i] = httptest.NewRecorder()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, r := range reqs {
			h.ServeHTTP(recs[i], r)
		}
		runtime.ReadMemStats(&after)
		for _, rec := range recs {
			if rec.Code != status {
				t.Fatalf("%s: status %d (%s), want %d", hop, rec.Code, rec.Body, status)
			}
		}
		allocs := float64(after.Mallocs-before.Mallocs) / float64(len(reqs))
		bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(len(reqs))
		b := budgets[hop]
		t.Logf("%-14s %6.2f allocs %6d B per call (budget %g, %d)", hop, allocs, bytes, b.allocs, b.bytes)
		if allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%s: %.2f allocs and %d B per call, budget %g and %d B", hop, allocs, bytes, b.allocs, b.bytes)
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

	cold := measure("cold submit", requests(http.MethodPost, jobs, func(i int) []byte { return body(int64(100 + i)) }),
		http.StatusAccepted)
	measure("cancel queued", requests(http.MethodDelete, func(i int) string { return cold[i].Header().Get("Location") }, nil),
		http.StatusAccepted)
	measure("cached submit", requests(http.MethodPost, jobs, func(int) []byte { return body(1) }), http.StatusOK)
	measure("metrics scrape", requests(http.MethodGet, func(int) string { return "/metrics" }, nil), http.StatusOK)
}
