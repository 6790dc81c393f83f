package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

const (
	usec = float64(time.Microsecond)
	msec = float64(time.Millisecond)
)

// reset drops what the tracer has seen so far (a warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.rec, t.counts, t.syncQueue = newRecorder(), counts{}, nil
	t.mu.Unlock()
}

// layerMetrics turns the traced pass into per-layer metrics: exact counts
// from the tracer, durations from the spans, and the pool's own per-job
// timestamps (added here as the jobqueue.queue_wait and jobqueue.run
// spans). It writes into m and returns the resolved spans.
func (b *bench) layerMetrics(w *workload, ops []op, ph *phase, jobs map[string]jobTimes, tr *tracer, m map[string]float64) []span {
	for id, jt := range jobs {
		if !jt.started.IsZero() { // cached submissions never queue or run
			tr.rec.add("jobqueue.queue_wait", id, jt.enqueued, jt.started)
			tr.rec.add("jobqueue.run", id, jt.started, jt.finished)
		}
	}
	traceOf := make(map[string]int, 3*len(ops))
	for i := range ph.results {
		traceOf[opKey(i)] = i
		traceOf[seedKey(ops[i].spec.Network.Seed)] = i
		if id := ph.results[i].jobID; id != "" {
			traceOf[id] = i
		}
	}
	spans := tr.rec.resolve(traceOf)
	dur := durationsByName(spans)
	p50 := func(name string, unit float64) float64 { return percentile(dur[name], 50) / unit }
	p95 := func(name string, unit float64) float64 { return percentile(dur[name], 95) / unit }

	c := &tr.counts
	nJobs := float64(len(ph.results))
	m["sim.events"] = float64(c.events)
	m["sim.pending_mean"] = ratio(c.pendingSum, float64(c.pendingN))
	m["radio.packets_sent"] = float64(c.packetsSent)
	m["radio.packets_delivered"] = float64(c.packetsDelivered)
	m["radio.packets_collided"] = float64(c.packetsCollided)
	m["radio.collision_share"] = ratio(float64(c.packetsCollided), float64(c.packetsDelivered+c.packetsCollided))
	m["core.wakeups"] = float64(c.wakeups)
	m["core.probes_sent"] = float64(c.probes)
	m["core.replies_sent"] = float64(c.replies)
	m["core.replies_per_probe"] = ratio(float64(c.replies), float64(c.probes))
	m["coverage.samples"] = float64(c.coverageSamples)
	m["forward.reports_generated"] = float64(c.reportsGenerated)
	m["forward.reports_delivered"] = float64(c.reportsDelivered)
	m["failure.injected"] = float64(c.failuresInjected)
	m["checkpoint.captures"] = float64(c.captures)
	m["checkpoint.captures_used_share"] = ratio(float64(c.capturesUsed), float64(c.captures))

	m["experiment.build_ms_p50"] = p50("experiment.build", msec)
	m["experiment.loop_ms_p50"] = p50("experiment.loop", msec)
	m["experiment.collect_ms_p50"] = p50("experiment.collect", msec)
	m["experiment.build_share"] = ratio(sum(dur["experiment.build"]), sum(dur["experiment.run"]))

	m["jobqueue.queue_wait_ms_p50"] = p50("jobqueue.queue_wait", msec)
	m["jobqueue.queue_wait_ms_p95"] = p95("jobqueue.queue_wait", msec)
	m["jobqueue.run_ms_p50"] = p50("jobqueue.run", msec)
	m["jobqueue.run_ms_p95"] = p95("jobqueue.run", msec)
	// What the pool adds around the simulation it runs: the worker's run
	// span minus the wrapped executor's span of the same job (the per-job
	// AllocMeter GC, building the result).
	runBy, expBy := map[int]int64{}, map[int]int64{}
	for _, s := range spans {
		switch s.Name {
		case "jobqueue.run":
			runBy[s.Trace] = s.End - s.Start
		case "experiment.run":
			expBy[s.Trace] = s.End - s.Start
		}
	}
	var overhead []float64
	for trace, run := range runBy {
		if exp, ok := expBy[trace]; ok {
			overhead = append(overhead, float64(run-exp)/msec)
		}
	}
	m["jobqueue.exec_overhead_ms_p50"] = median(overhead)
	m["jobqueue.worker_busy_share"] = ratio(sum(dur["jobqueue.run"]), poolWorkers*float64(ph.wall))

	m["durable.writes"] = float64(c.writes)
	m["durable.fsyncs"] = float64(c.fsyncs)
	// Counted from the resolved spans: a warm-up job's files can be removed
	// after the warm-up returned, and those spans resolve to no trace.
	m["durable.removes"] = float64(len(dur["durable.remove"]))
	m["durable.bytes_written"] = float64(c.bytesWritten)
	m["durable.writes_per_job"] = ratio(float64(c.writes), nJobs)
	m["durable.write_us_p50"] = p50("durable.write", usec)
	m["durable.write_us_p95"] = p95("durable.write", usec)
	m["durable.fsync_us_p50"] = median(c.fsyncUS)

	m["server.requests"] = float64(c.requests)
	m["server.rejected"] = float64(c.rejected)
	m["server.submit_us_p50"] = p50("server.submit", usec)
	m["server.submit_us_p95"] = p95("server.submit", usec)
	m["server.get_us_p50"] = p50("server.get", usec)
	m["server.sse_stream_ms_p50"] = p50("server.events", msec)
	m["server.sse_events_per_job"] = ratio(float64(c.sseEvents), nJobs)
	m["server.response_bytes_per_job"] = ratio(float64(c.responseBytes), nJobs)

	m["client.submit_rtt_us_p50"] = p50("client.submit", usec)
	m["client.submit_rtt_us_p95"] = p95("client.submit", usec)
	m["client.follow_ms_p50"] = p50("client.follow", msec)
	m["client.requests_per_job"] = ratio(float64(c.requests), nJobs)
	return spans
}

// traceFile is what benchmark/out/trace_<workload>.json holds.
type traceFile struct {
	// SelfMS is total self time per span name, milliseconds: duration minus
	// what the span's children cover.
	SelfMS map[string]float64 `json:"self_ms"`
	Spans  []span             `json:"spans"`
}

// writeTrace writes the traced pass's spans, kept in memory until now.
func writeTrace(outDir, workload string, spans []span) error {
	tf := traceFile{SelfMS: map[string]float64{}, Spans: spans}
	self := selfTimes(spans)
	for _, s := range spans {
		tf.SelfMS[s.Name] += float64(self[s.ID]) / msec
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace_"+workload+".json"), data, 0o644)
}
