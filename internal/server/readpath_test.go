package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/server"
	"peas/internal/server/api"
)

// countingListener counts the Write calls made on every connection it
// accepts: each one is a write(2) on the server's socket.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// servePool serves pool over HTTP through a listener that counts writes.
func servePool(t *testing.T, pool *jobqueue.Pool) (url string, l *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(server.New(pool, 1))
	l = &countingListener{Listener: ts.Listener}
	ts.Listener = l
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	})
	return ts.URL, l
}

// TestFinishedStreamIsOneWrite: the event stream of a job that ended
// before it opened — one that ran, one served from the cache and one that
// failed — arrives in a single write, headers, event and end of body
// together, with the headers and the event bytes of any other stream.
func TestFinishedStreamIsOneWrite(t *testing.T) {
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4,
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			if rc.Network.Seed == 13 {
				return nil, errors.New("injected run failure")
			}
			return experiment.Run(rc)
		}})
	pool.Start()
	url, l := servePool(t, pool)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var jobs []*jobqueue.Job
	for _, seed := range []int64{11, 11, 13} {
		job, _, err := pool.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = job.Wait(ctx) // the seed-13 run fails by design
		jobs = append(jobs, job)
	}
	for i, want := range []jobqueue.State{jobqueue.StateDone, jobqueue.StateDone, jobqueue.StateFailed} {
		if st := jobs[i].State(); st != want {
			t.Fatalf("job %d is %s, want %s", i, st, want)
		}
	}

	for _, job := range jobs {
		ev := job.Event(job.View())
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("event: %s\ndata: %s\n\n", ev.Type, data)

		before := l.writes.Load()
		resp, err := http.Get(url + "/api/v1/jobs/" + job.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		writes := l.writes.Load() - before
		t.Logf("%s (%s): %d-byte stream in %d write(s)", job.ID, ev.Type, len(body), writes)
		if string(body) != want {
			t.Errorf("%s: stream %q, want %q", job.ID, body, want)
		}
		if writes != 1 {
			t.Errorf("%s: the finished job's stream took %d writes, want 1", job.ID, writes)
		}
		h := resp.Header
		if resp.StatusCode != http.StatusOK || h.Get("Content-Type") != "text/event-stream" ||
			h.Get("Cache-Control") != "no-cache" || h.Get("Content-Length") != "" ||
			strings.Join(resp.TransferEncoding, ",") != "chunked" {
			t.Errorf("%s: status %d, transfer encoding %v, headers %v", job.ID, resp.StatusCode, resp.TransferEncoding, h)
		}
	}
}

// TestQueueFullRejectionCounted: a 429 for a full queue raises
// queue_full_rejected by one. Besides the jobs_submitted and cache_misses
// every miss bumps, it moves no other counter.
func TestQueueFullRejectionCounted(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 1,
		BeforeRun: func(*jobqueue.Job) {
			started <- struct{}{}
			<-release
		}})
	pool.Start()
	url, _ := servePool(t, pool)
	defer close(release)
	post := func(seed int64) *http.Response {
		t.Helper()
		body, err := json.Marshal(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	post(1) // runs, held before its simulation
	<-started
	post(2) // queued: the queue is full

	before := pool.Stats().Counters
	if resp := post(3); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission into a full queue: %d, want 429", resp.StatusCode)
	}
	after := pool.Stats().Counters
	moved := map[string]uint64{}
	for name, n := range after {
		if d := n - before[name]; d != 0 {
			moved[name] = d
		}
	}
	want := map[string]uint64{"jobs_submitted": 1, "cache_misses": 1, "queue_full_rejected": 1}
	if !maps.Equal(moved, want) {
		t.Errorf("a 429 moved the counters by %v, want %v", moved, want)
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(string(page), "peas_queue_full_rejected"); got != 1 {
		t.Errorf("peas_queue_full_rejected = %d, want 1", got)
	}
}

// TestResubmittedBodyAnsweredAsBefore: the same bytes posted again after
// their run are answered alike whether the pool decodes them (the first
// hit) or finds them by digest (every later one): same status, headers
// and body, apart from the new job's ID and times.
func TestResubmittedBodyAnsweredAsBefore(t *testing.T) {
	var runs atomic.Int64
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4,
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			runs.Add(1)
			return experiment.Run(rc)
		}})
	pool.Start()
	url, _ := servePool(t, pool)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, _, err := pool.Submit(testSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(testSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		header http.Header
		sub    api.SubmitResponse
	}
	var answers []answer
	for i := 0; i < 3; i++ {
		resp, err := http.Post(url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var a answer
		a.status, a.header = resp.StatusCode, resp.Header
		err = json.NewDecoder(resp.Body).Decode(&a.sub)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if a.header.Get("Location") != "/api/v1/jobs/"+a.sub.Job.ID {
			t.Errorf("answer %d: Location %q for job %s", i, a.header.Get("Location"), a.sub.Job.ID)
		}
		for _, varies := range []string{"Date", "Location", "Content-Length"} { // with the job's ID and times
			a.header.Del(varies)
		}
		a.sub.Job.ID, a.sub.Job.EnqueuedAt, a.sub.Job.FinishedAt = "", time.Time{}, nil
		answers = append(answers, a)
	}
	first, _ := json.Marshal(answers[0].sub)
	for i, a := range answers {
		got, _ := json.Marshal(a.sub)
		if a.status != http.StatusOK || a.sub.Outcome != jobqueue.OutcomeCached ||
			!maps.EqualFunc(a.header, answers[0].header, func(x, y []string) bool { return strings.Join(x, ",") == strings.Join(y, ",") }) ||
			!bytes.Equal(got, first) {
			t.Errorf("answer %d: %d %v %s, want %d %v %s", i, a.status, a.header, got, answers[0].status, answers[0].header, first)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("%d runs, want 1", runs.Load())
	}
}

// TestJobViewIsOneInstant sends GETs from two readers while jobs under a
// stub Run move queued → running → done, one job at a time, and holds
// every JobInfo to one instant of its job: running has a start, done has
// a finish and a result, a result means done, and a finish means a
// terminal state. A response that mixed two instants would break one.
func TestJobViewIsOneInstant(t *testing.T) {
	jobs, readers := 3000, 2
	if raceEnabled {
		jobs = 300
	}
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4,
		Run: func(experiment.RunConfig) (*experiment.RunStats, error) { return &experiment.RunStats{}, nil }})
	pool.Start()
	t.Cleanup(func() { _ = pool.Shutdown(context.Background()) })
	h := server.New(pool, 1)

	get := func(path string) (api.JobInfo, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var info api.JobInfo
		if rec.Code != http.StatusOK {
			return info, fmt.Errorf("GET %s: status %d (%s)", path, rec.Code, rec.Body)
		}
		return info, json.Unmarshal(rec.Body.Bytes(), &info)
	}
	torn := func(info api.JobInfo) string {
		switch {
		case info.State == jobqueue.StateRunning && info.StartedAt == nil:
			return "running with no startedAt"
		case info.State == jobqueue.StateDone && (info.FinishedAt == nil || info.Result == nil):
			return "done with no finishedAt or no result"
		case info.Result != nil && info.State != jobqueue.StateDone:
			return "a result on a job that is not done"
		case info.FinishedAt != nil && !info.State.Terminal():
			return "a finishedAt on a job that is not terminal"
		}
		return ""
	}

	var views atomic.Int64
	paths := make([]chan string, readers)
	read := make(chan error, readers) // one per reader per job
	for r := range paths {
		paths[r] = make(chan string)
		defer close(paths[r])
		go func() {
			for path := range paths[r] {
				var err error
				for {
					info, gerr := get(path)
					views.Add(1)
					if gerr != nil {
						err = gerr
						break
					}
					if why := torn(info); why != "" {
						err = fmt.Errorf("%s reads %s: %+v", path, why, info)
						break
					}
					if info.State.Terminal() {
						break
					}
				}
				read <- err
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		job, _, err := pool.Submit(testSpec(int64(1000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			p <- "/api/v1/jobs/" + job.ID
		}
		for range paths {
			if err := <-read; err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d jobs, %d views", jobs, views.Load())
}
