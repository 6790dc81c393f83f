package client_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"peas/internal/client"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/node"
	"peas/internal/server"
)

// sseServer serves body, verbatim, as every job's event stream.
func sseServer(t *testing.T, body string) *client.Client {
	t.Helper()
	data := []byte(body)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = w.Write(data)
	}))
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// sseEvent frames ev as the server writes it.
func sseEvent(t *testing.T, ev jobqueue.Event) string {
	t.Helper()
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("event: %s\ndata: %s\n\n", ev.Type, data)
}

// collect follows job j-1's stream and returns every event it delivered.
func collect(c *client.Client) ([]jobqueue.Event, error) {
	var got []jobqueue.Event
	err := c.Events(context.Background(), "j-1", func(ev jobqueue.Event) bool {
		got = append(got, ev)
		return true
	})
	return got, err
}

// TestEventsParsesLineLongerThanStartBuffer: a 200 KiB data line, well
// past the scanner's starting size, still parses whole.
func TestEventsParsesLineLongerThanStartBuffer(t *testing.T) {
	want := jobqueue.Event{Type: jobqueue.EventFailed, JobID: "j-1", Error: strings.Repeat("x", 200<<10)}
	got, err := collect(sseServer(t, sseEvent(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("got %d events; want the one 200 KiB event intact", len(got))
	}
}

// TestEventsLineOverCeilingFails: a line past 1 MiB is refused with
// bufio.ErrTooLong rather than buffered without bound.
func TestEventsLineOverCeilingFails(t *testing.T) {
	ev := jobqueue.Event{Type: jobqueue.EventFailed, JobID: "j-1", Error: strings.Repeat("x", 1<<20)}
	got, err := collect(sseServer(t, sseEvent(t, ev)))
	if !errors.Is(err, bufio.ErrTooLong) || len(got) != 0 {
		t.Fatalf("err = %v after %d events; want bufio.ErrTooLong and none", err, len(got))
	}
}

// TestEventsMalformedLine: a data line that is not an event's JSON ends
// the stream with the client's malformed-event error.
func TestEventsMalformedLine(t *testing.T) {
	_, err := collect(sseServer(t, "event: done\ndata: {\"type\":\n\n"))
	if err == nil || !strings.Contains(err.Error(), "client: malformed SSE event") {
		t.Fatalf("err = %v; want a malformed SSE event error", err)
	}
}

// TestEventsKeptEventsStayIntact: events fn keeps are unchanged after the
// scanner has read, grown and overwritten its buffer with later lines, so
// no field of an event points into that buffer.
func TestEventsKeptEventsStayIntact(t *testing.T) {
	var want []jobqueue.Event
	var body strings.Builder
	for i, n := range []int{8, 16 << 10, 40, 100 << 10, 3, 12} {
		ev := jobqueue.Event{Type: jobqueue.EventProgress, JobID: fmt.Sprintf("j-%06d", i),
			SimT: float64(i), Error: strings.Repeat(string(rune('a'+i)), n)}
		if i == 5 {
			ev.Type = jobqueue.EventDone
			ev.Result = &jobqueue.Result{StateHash: strings.Repeat("f", 64), WallSeconds: 1.5, Events: 42}
		}
		want = append(want, ev)
		body.WriteString(sseEvent(t, ev))
		body.WriteString(": keepalive\n\n")
	}
	got, err := collect(sseServer(t, body.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d changed after later lines were scanned: got %s %q…", i, got[i].JobID, got[i].Error[:min(8, len(got[i].Error))])
		}
	}
}

// startPool boots a pool running real simulations behind an in-process
// server and returns a client for it.
func startPool(t *testing.T, workers int) *client.Client {
	t.Helper()
	pool := jobqueue.New(jobqueue.Config{Workers: workers, QueueDepth: 64})
	pool.Start()
	ts := httptest.NewServer(server.New(pool, workers))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	})
	return client.New(ts.URL)
}

func smallSpec(seed int64) *jobqueue.Spec {
	return &jobqueue.Spec{
		Network:          node.DefaultConfig(40, seed),
		FailuresPer5000s: experiment.BaseFailuresPer5000,
		Horizon:          600,
	}
}

// TestEventsAllocationBudget: following a finished job's stream, one done
// event, allocates what that event needs and not a fixed 64 KiB buffer
// per call. The done event comes from a real run; a stub serves its bytes,
// so the count holds little besides the client's own allocations.
func TestEventsAllocationBudget(t *testing.T) {
	c := startPool(t, 1)
	ctx := context.Background()
	sub, err := c.Submit(ctx, smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	var done jobqueue.Event
	if err := c.Events(ctx, sub.Job.ID, func(ev jobqueue.Event) bool { done = ev; return true }); err != nil {
		t.Fatal(err)
	}
	if done.Type != jobqueue.EventDone || done.Result == nil {
		t.Fatalf("stream ended with %+v; want a done event with its result", done)
	}
	stub := sseServer(t, sseEvent(t, done))
	follow := func() {
		if err := stub.Events(ctx, done.JobID, func(jobqueue.Event) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	follow() // open the kept-alive connection
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		follow()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("Events allocates %d B per call on a one-event stream", perCall)
	if perCall >= 16<<10 {
		t.Fatalf("Events allocates %d B per call on a one-event stream; budget 16 KiB", perCall)
	}
}

// TestSharedClientConcurrentRoundTrips: eight goroutines share one Client
// for Submit, Events and Job against an in-process server, two to a spec,
// so runs, coalesced submissions and cache hits interleave. Every answer
// must belong to the job it was asked about, whatever pooled buffer or
// connection carried it, and every run of one spec ends in one StateHash.
func TestSharedClientConcurrentRoundTrips(t *testing.T) {
	const goroutines, specs, rounds = 8, 4, 3
	c := startPool(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := make([]string, specs)
	for i := range keys {
		s := smallSpec(int64(i))
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		keys[i] = s.Key()
	}
	var mu sync.Mutex
	hashes := map[string]string{} // content key -> StateHash
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % specs
			for r := 0; r < rounds; r++ {
				sub, err := c.Submit(ctx, smallSpec(int64(k)))
				if err != nil {
					t.Errorf("goroutine %d: submit: %v", g, err)
					return
				}
				id := sub.Job.ID
				if sub.Job.Key != keys[k] || sub.Job.Seed != int64(k) {
					t.Errorf("goroutine %d: submit of seed %d answered with job %s of key %s, seed %d", g, k, id, sub.Job.Key, sub.Job.Seed)
					return
				}
				var last jobqueue.Event
				err = c.Events(ctx, id, func(ev jobqueue.Event) bool {
					if ev.JobID != id {
						t.Errorf("goroutine %d: stream of %s delivered an event of %s", g, id, ev.JobID)
					}
					last = ev
					return true
				})
				if err != nil || last.Type != jobqueue.EventDone || last.Result == nil {
					t.Errorf("goroutine %d: stream of %s ended with %q, %v; want done with a result", g, id, last.Type, err)
					return
				}
				info, err := c.Job(ctx, id)
				if err != nil || info.ID != id || info.Key != keys[k] || info.State != jobqueue.StateDone ||
					info.Result == nil || info.Result.StateHash != last.Result.StateHash {
					t.Errorf("goroutine %d: Job(%s) = %+v, %v; want the done job of key %s", g, id, info, err, keys[k])
					return
				}
				mu.Lock()
				if h, seen := hashes[keys[k]]; seen && h != info.Result.StateHash {
					t.Errorf("key %s ended in StateHash %s and %s", keys[k], h, info.Result.StateHash)
				}
				hashes[keys[k]] = info.Result.StateHash
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(hashes) != specs {
		t.Errorf("%d keys reached a StateHash, want %d", len(hashes), specs)
	}
}
