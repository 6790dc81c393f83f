// Package server exposes the jobqueue pool over HTTP/JSON: job
// submission with admission control (429 + Retry-After on a full
// queue), job inspection, per-job lifecycle streaming over SSE, a
// content-addressed result endpoint, and the operational surface
// (/healthz, /metrics). The server owns no execution logic — it is a
// thin, faithful transport over jobqueue semantics, which is what the
// end-to-end cache-coherence tests pin down.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"time"

	"peas/internal/buildinfo"
	"peas/internal/jobqueue"
	"peas/internal/metrics"
	"peas/internal/server/api"
)

// Server is the HTTP face of one pool.
type Server struct {
	pool    *jobqueue.Pool
	workers int
	started time.Time
	mux     *http.ServeMux
}

// New wires a server around a started pool. workers is reported in
// /healthz (the pool does not expose its own configuration).
func New(pool *jobqueue.Pool, workers int) *Server {
	s := &Server{
		pool:    pool,
		workers: workers,
		started: time.Now(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/results/{key}", s.handleResult)
	return s
}

// writeBudget bounds how long one non-streaming response may take to
// write; the SSE handler replaces it with its own rolling deadline.
const writeBudget = 30 * time.Second

// ServeHTTP implements http.Handler. A global http.Server.WriteTimeout
// would sever long-lived SSE streams, so the write deadline is applied
// per request here instead — a fixed budget for plain JSON responses,
// pushed forward per event by the streaming handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Errors mean the transport has no deadline support (e.g. a
	// ResponseRecorder in tests); serving without one is the status quo.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(writeBudget))
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// jobInfo renders a job for the wire.
func jobInfo(j *jobqueue.Job) api.JobInfo {
	simT, working := j.Progress()
	enq, started, finished := j.Times()
	info := api.JobInfo{
		ID:         j.ID,
		Key:        j.Key,
		Kind:       j.Spec.Kind,
		State:      j.State(),
		N:          j.Spec.Network.N,
		Seed:       j.Spec.Network.Seed,
		Horizon:    j.Spec.Horizon,
		SimT:       simT,
		Working:    working,
		Result:     j.Result(),
		EnqueuedAt: enq,
	}
	if err := j.Err(); err != nil {
		info.Error = err.Error()
	}
	info.DeadlineSeconds = j.Spec.DeadlineSeconds
	info.CancelRequested = j.CancelRequested()
	if wait, _ := j.QueueWait(); wait > 0 {
		info.QueueWaitSeconds = wait.Seconds()
	}
	if !started.IsZero() {
		info.StartedAt = &started
	}
	if !finished.IsZero() {
		info.FinishedAt = &finished
	}
	return info
}

// maxSpecBytes bounds the POST /api/v1/jobs body. The largest legitimate
// spec (explicit positions and per-node seeds for a big deployment plus a
// chaos plan) stays far under this; anything bigger is a client bug or
// abuse and is cut off at 413 before it can balloon server memory.
const maxSpecBytes = 8 << 20

// retryReject writes a rejection that carries a Retry-After hint.
func retryReject(w http.ResponseWriter, status int, code string, after time.Duration, err error) {
	secs := int(after.Round(time.Second).Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, api.ErrorResponse{
		Error:             err.Error(),
		Code:              code,
		RetryAfterSeconds: secs,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := jobqueue.DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	job, outcome, err := s.pool.Submit(spec)
	if err != nil {
		var full *jobqueue.QueueFullError
		if errors.As(err, &full) {
			retryReject(w, http.StatusTooManyRequests, api.CodeQueueFull, full.RetryAfter, full)
			return
		}
		var infeasible *jobqueue.DeadlineInfeasibleError
		if errors.As(err, &infeasible) {
			// Deadline-aware admission: the queue-wait estimate says the
			// job would blow its budget before starting. Same shape as
			// queue-full — 429 plus a backoff hint — with a distinct code
			// so clients can loosen the deadline instead of just waiting.
			retryReject(w, http.StatusTooManyRequests, api.CodeDeadlineInfeasible, infeasible.RetryAfter, infeasible)
			return
		}
		var persist *jobqueue.PersistError
		if errors.As(err, &persist) {
			// The pool rolled the admission back: accepting the job would
			// promise crash recovery the disk cannot deliver. 503 tells
			// the client the rejection is the server's condition, not the
			// request's, and that a retry may succeed (transient ENOSPC).
			retryReject(w, http.StatusServiceUnavailable, api.CodePersistFailed, 5*time.Second, persist)
			return
		}
		if errors.Is(err, jobqueue.ErrShuttingDown) {
			// A drain is the server's condition too: the next boot takes
			// the job, so the rejection must not read as permanent.
			retryReject(w, http.StatusServiceUnavailable, api.CodeShuttingDown, 5*time.Second, err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusAccepted
	if outcome == jobqueue.OutcomeCached {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/api/v1/jobs/"+job.ID)
	writeJSON(w, status, api.SubmitResponse{Outcome: outcome, Job: jobInfo(job)})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.pool.Jobs()
	resp := api.JobListResponse{Jobs: make([]api.JobInfo, 0, len(jobs))}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, jobInfo(j))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.pool.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, jobInfo(job))
}

// handleCancel requests cancellation of a job. Cancellation is
// asynchronous and idempotent: 202 means this call initiated a stop (the
// job reaches cancelled/deadline_exceeded when the worker acknowledges;
// queued jobs are already terminal in the response), 200 means there was
// nothing left to do — the job is terminal or a stop is already in
// flight. Either way the body carries the job's current view.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, found, requested := s.pool.Cancel(id)
	if !found {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	status := http.StatusOK
	if requested {
		status = http.StatusAccepted
	}
	writeJSON(w, status, api.CancelResponse{Requested: requested, Job: jobInfo(job)})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	res, ok := s.pool.CachedResult(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for key %q", key)
		return
	}
	writeJSON(w, http.StatusOK, api.ResultResponse{Key: key, Result: res})
}

// handleEvents streams a job's lifecycle as Server-Sent Events: one
// "event: <type>" / "data: <json>" pair per jobqueue.Event, ending when
// the job reaches a terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.pool.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// The stream outlives the per-request write budget by design, so it
	// manages its own deadline: pushed forward before every write, with
	// periodic keepalive comments so an idle stream both stays inside the
	// deadline and detects a dead client (the write fails once the peer's
	// buffers fill).
	rc := http.NewResponseController(w)
	extend := func() { _ = rc.SetWriteDeadline(time.Now().Add(writeBudget)) }
	keepalive := time.NewTicker(10 * time.Second)
	defer keepalive.Stop()

	events, cancel := job.Subscribe()
	defer cancel()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-keepalive.C:
			extend()
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			extend()
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	stats := s.pool.Stats()
	writeJSON(w, http.StatusOK, api.HealthResponse{
		Status:          "ok",
		Build:           buildinfo.Read(),
		UptimeSeconds:   time.Since(s.started).Seconds(),
		QueueDepth:      stats.QueueDepth,
		InFlight:        stats.InFlight,
		Workers:         s.workers,
		Goroutines:      runtime.NumGoroutine(),
		JobsRecovered:   stats.Counters["jobs_recovered"],
		JobsQuarantined: stats.Counters["jobs_quarantined"],
	})
}

// handleMetrics renders the pool's gauges and counters in the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	stats := s.pool.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE peas_queue_depth gauge\npeas_queue_depth %d\n", stats.QueueDepth)
	fmt.Fprintf(w, "# TYPE peas_inflight gauge\npeas_inflight %d\n", stats.InFlight)
	fmt.Fprintf(w, "# TYPE peas_cache_entries gauge\npeas_cache_entries %d\n", stats.CacheEntries)
	fmt.Fprintf(w, "# TYPE peas_job_wall_seconds_total counter\npeas_job_wall_seconds_total %g\n", stats.WallSecondsTotal)
	// The shared counter set (jobs, cache, runs, the engines' own event
	// and event-record counts, fault classes) in stable name order.
	names := make([]string, 0, len(stats.Counters))
	for name := range stats.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE peas_%s counter\npeas_%s %d\n", metricName(name), metricName(name), stats.Counters[name])
	}
	// Latency histograms: queue wait (admission to dequeue) and run
	// duration (worker wall time), the two halves of server-side job
	// latency the load-generation harness gates on.
	writeHistogram(w, "peas_queue_wait_seconds", s.pool.QueueWait().Snapshot())
	writeHistogram(w, "peas_run_duration_seconds", s.pool.RunDuration().Snapshot())
	// The collector's churn, process-wide: cycles completed and bytes
	// allocated since the process started. runtime/metrics reads both
	// without stopping the world.
	gc := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(gc)
	fmt.Fprintf(w, "# TYPE peas_go_gc_cycles_total counter\npeas_go_gc_cycles_total %d\n", gc[0].Value.Uint64())
	fmt.Fprintf(w, "# TYPE peas_go_alloc_bytes_total counter\npeas_go_alloc_bytes_total %d\n", gc[1].Value.Uint64())
}

// writeHistogram renders one snapshot in the Prometheus text exposition
// format: cumulative bucket counts over the histogram's non-empty
// log-linear bucket bounds, plus sum and count.
func writeHistogram(w io.Writer, name string, snap metrics.HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for _, b := range snap.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b.UpperBound, 'g', 6, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, snap.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
}

// metricName sanitizes a counter name (which may be a chaos fault class
// like "fail-stop") into a Prometheus identifier.
func metricName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
