package main

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"peas"
	"peas/internal/checkpoint"
	"peas/internal/durable"
	"peas/internal/experiment"
	"peas/internal/node"
)

// tracer is the traced pass's instrumentation. Every layer is measured
// from outside, through seams the program already has: RunConfig hooks for
// the simulator, jobqueue.Config.Run and .FS for the pool and its state
// store, an http.Handler wrapper for the server. It adds spans to rec and
// sums the exact counts the layers expose.
type tracer struct {
	rec *recorder

	mu sync.Mutex
	counts
	// syncQueue holds the job IDs of renamed-but-not-yet-dir-synced writes.
	// durable.WriteFile's last step, SyncDir, names only the directory; it
	// follows its Rename on the same goroutine, so with two submitters the
	// oldest waiting rename is the right owner in all but a rare
	// interleaving, and then the two writes swap a few microseconds.
	syncQueue []pendingWrite
}

type pendingWrite struct {
	id    string
	start time.Time
}

// counts are the traced pass's sums. Simulator fields add up the public
// accessors read at OnFinish; the rest are counted by the wrappers.
type counts struct {
	events                                         uint64
	packetsSent, packetsDelivered, packetsCollided uint64
	wakeups, probes, replies                       uint64
	pendingSum                                     float64
	pendingN                                       int
	coverageSamples                                int
	reportsGenerated, reportsDelivered             int
	failuresInjected                               int
	captures, capturesUsed                         int

	writes, fsyncs int
	bytesWritten   int64
	fsyncUS        []float64

	requests, rejected int
	responseBytes      int64
	sseEvents          int
}

func newTracer() *tracer { return &tracer{rec: newRecorder()} }

func seedKey(seed int64) string { return "seed:" + strconv.FormatInt(seed, 10) }

// run is peas.Run with the experiment layer's boundaries marked: call ->
// OnNetwork is the build, OnNetwork -> OnFinish the event loop, OnFinish ->
// return the collection of results. Hooks the caller already set (the pool
// sets all four) still fire. The run is correlated by its network seed,
// which is unique within a plan.
func (t *tracer) run(cfg experiment.RunConfig) (*experiment.RunStats, error) {
	key := seedKey(cfg.Network.Seed)
	var (
		net        *node.Network
		built, fin time.Time
		c          counts
	)
	onNetwork, onFinish, onSample, onCheckpoint := cfg.OnNetwork, cfg.OnFinish, cfg.OnSample, cfg.OnCheckpoint
	cfg.OnNetwork = func(n *node.Network) {
		built, net = time.Now(), n
		if onNetwork != nil {
			onNetwork(n)
		}
	}
	cfg.OnSample = func(simT float64, working int, byK []float64) {
		c.pendingSum += float64(net.Engine.Pending())
		c.pendingN++
		if onSample != nil {
			onSample(simT, working, byK)
		}
	}
	if onCheckpoint != nil {
		cfg.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
			now := time.Now()
			t.rec.add("checkpoint.capture", key, now, now)
			c.captures++
			stop := onCheckpoint(s)
			if stop {
				c.capturesUsed++
			}
			return stop
		}
	}
	cfg.OnFinish = func(n *node.Network) {
		fin = time.Now()
		c.events = n.Engine.Executed()
		for _, nd := range n.Nodes {
			st := nd.Protocol().Stats()
			c.probes += st.ProbesSent
			c.replies += st.RepliesSent
		}
		if onFinish != nil {
			onFinish(n)
		}
	}

	start := time.Now()
	st, err := peas.Run(cfg)
	end := time.Now()
	if err != nil || fin.IsZero() {
		return st, err
	}
	t.rec.add("experiment.run", key, start, end)
	t.rec.add("experiment.build", key, start, built)
	t.rec.add("experiment.loop", key, built, fin)
	t.rec.add("experiment.collect", key, fin, end)

	t.mu.Lock()
	t.events += c.events
	t.probes += c.probes
	t.replies += c.replies
	t.pendingSum += c.pendingSum
	t.pendingN += c.pendingN
	t.captures += c.captures
	t.capturesUsed += c.capturesUsed
	t.packetsSent += st.PacketsSent
	t.packetsDelivered += st.PacketsDelivered
	t.packetsCollided += st.PacketsCollided
	t.wakeups += st.Wakeups
	t.coverageSamples += st.CoverageSamples
	t.reportsGenerated += st.ReportsGenerated
	t.reportsDelivered += st.ReportsDelivered
	t.failuresInjected += st.FailuresInjected
	t.mu.Unlock()
	return st, nil
}

// jobIDOf extracts "j-000123" from a state-store path such as
// <dir>/j-000123.spec.json(.tmp) or <dir>/j-000123.ckpt.
func jobIDOf(path string) string {
	id, _, _ := strings.Cut(filepath.Base(path), ".")
	return id
}

// tracedFS is the real filesystem with every durability step timed. The
// span durable.write runs from the creation of the temporary file to the
// end of the directory fsync (the MkdirAll before it, a stat of an
// existing directory, is left out because it names no file).
type tracedFS struct {
	durable.OS
	t *tracer
}

func (f *tracedFS) Create(name string) (durable.File, error) {
	start := time.Now()
	file, err := f.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, id: jobIDOf(name), start: start}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.OS.Rename(oldpath, newpath)
	if err == nil {
		f.t.mu.Lock()
		f.t.writes++
		f.t.mu.Unlock()
	}
	return err
}

func (f *tracedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.OS.SyncDir(dir)
	end := time.Now()
	f.t.mu.Lock()
	f.t.fsyncs++
	f.t.fsyncUS = append(f.t.fsyncUS, float64(end.Sub(t0))/float64(time.Microsecond))
	var w pendingWrite
	if len(f.t.syncQueue) > 0 {
		w, f.t.syncQueue = f.t.syncQueue[0], f.t.syncQueue[1:]
	}
	f.t.mu.Unlock()
	if w.id != "" {
		f.t.rec.add("durable.write", w.id, w.start, end)
	}
	return err
}

func (f *tracedFS) Remove(name string) error {
	t0 := time.Now()
	err := f.OS.Remove(name)
	f.t.rec.add("durable.remove", jobIDOf(name), t0, time.Now())
	return err
}

type tracedFile struct {
	durable.File
	fs    *tracedFS
	id    string
	start time.Time
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.t.mu.Lock()
	f.fs.t.bytesWritten += int64(n)
	f.fs.t.mu.Unlock()
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	us := float64(time.Since(t0)) / float64(time.Microsecond)
	f.fs.t.mu.Lock()
	f.fs.t.fsyncs++
	f.fs.t.fsyncUS = append(f.fs.t.fsyncUS, us)
	f.fs.t.mu.Unlock()
	return err
}

// Close queues the write for the directory fsync that completes it.
func (f *tracedFile) Close() error {
	err := f.File.Close()
	f.fs.t.mu.Lock()
	f.fs.t.syncQueue = append(f.fs.t.syncQueue, pendingWrite{id: f.id, start: f.start})
	f.fs.t.mu.Unlock()
	return err
}

// handler times every request the server handles. Job requests become
// spans keyed by job ID: a submission's ID is read from the Location header
// the server sets, the others carry it in the path.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()

		const jobs = "/api/v1/jobs"
		switch rest, isJob := strings.CutPrefix(r.URL.Path, jobs); {
		case !isJob:
		case r.Method == http.MethodPost && rest == "":
			if id, ok := strings.CutPrefix(cw.Header().Get("Location"), jobs+"/"); ok {
				t.rec.add("server.submit", id, t0, end)
			}
		case r.Method == http.MethodGet && strings.HasSuffix(rest, "/events"):
			t.rec.add("server.events", strings.Trim(strings.TrimSuffix(rest, "/events"), "/"), t0, end)
		case r.Method == http.MethodGet && rest != "":
			t.rec.add("server.get", strings.Trim(rest, "/"), t0, end)
		}
		t.mu.Lock()
		t.requests++
		if cw.status >= 400 {
			t.rejected++
		}
		t.responseBytes += cw.bytes
		t.sseEvents += cw.sseEvents
		t.mu.Unlock()
	})
}

// countingWriter counts response bytes and SSE frames (the server writes
// each event with one Write that starts "event:"). It keeps the streaming
// handler working: Flush passes through and Unwrap lets
// http.ResponseController reach the connection's write deadline.
type countingWriter struct {
	http.ResponseWriter
	status    int
	bytes     int64
	sseEvents int
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("event:")) {
		w.sseEvents++
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
