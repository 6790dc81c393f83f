package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op (a run
// or a job) share Trace, the op's index in the plan; Parent is the ID of
// the span that caused this one, 0 for a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanParent is the causal chain of one op, child name -> parent name. A
// span whose parent name is absent from its trace becomes a root, which is
// how a direct simulator run (no job, no queue) gets experiment.run on top.
var spanParent = map[string]string{
	"client.submit":       "job",
	"client.follow":       "job",
	"client.get":          "job",
	"server.submit":       "client.submit",
	"server.events":       "client.follow",
	"server.get":          "client.get",
	"durable.write":       "server.submit",
	"jobqueue.queue_wait": "job",
	"jobqueue.run":        "job",
	"durable.remove":      "job",
	"experiment.run":      "jobqueue.run",
	"experiment.build":    "experiment.run",
	"experiment.loop":     "experiment.run",
	"experiment.collect":  "experiment.run",
	"checkpoint.capture":  "experiment.loop",
}

// rawSpan is a span as a wrapper saw it: the wrapper knows a correlation
// key (job ID, network seed or op index), not yet the trace.
type rawSpan struct {
	key, name  string
	start, end int64
}

// recorder collects spans in memory; nothing is written until the
// benchmark ends. A nil recorder records nothing, so untraced passes run
// the same code without the cost.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	raw   []rawSpan
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name, key string, start, end time.Time) {
	if r == nil {
		return
	}
	s := rawSpan{key: key, name: name, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.raw = append(r.raw, s)
	r.mu.Unlock()
}

// resolve turns raw spans into the final records: traceOf maps each
// correlation key to its op index (spans with an unknown key, e.g. from
// warm-up jobs, are dropped), IDs are assigned in start order, and parents
// follow spanParent within the trace.
func (r *recorder) resolve(traceOf map[string]int) []span {
	r.mu.Lock()
	raw := append([]rawSpan(nil), r.raw...)
	r.mu.Unlock()
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].start < raw[j].start })

	type traceName struct {
		trace int
		name  string
	}
	spans := make([]span, 0, len(raw))
	first := make(map[traceName]int, len(raw))
	for _, rs := range raw {
		trace, ok := traceOf[rs.key]
		if !ok {
			continue
		}
		s := span{Trace: trace, ID: len(spans) + 1, Name: rs.name, Start: rs.start, End: rs.end}
		spans = append(spans, s)
		if _, seen := first[traceName{trace, rs.name}]; !seen {
			first[traceName{trace, rs.name}] = s.ID
		}
	}
	for i := range spans {
		if parent, ok := spanParent[spans[i].Name]; ok {
			spans[i].Parent = first[traceName{spans[i].Trace, parent}]
		}
	}
	return spans
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its own interval that its direct children cover.
// Children that overlap each other are counted once (the union), a child
// that sticks out of its parent is clipped to the parent, and a span whose
// parent is not in the set is a root whose time is taken from nobody.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// durationsByName groups span durations, in nanoseconds and ascending, by
// span name.
func durationsByName(spans []span) map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start))
	}
	for _, d := range by {
		sort.Float64s(d)
	}
	return by
}
