// Package trace records structured simulation events for debugging,
// visualization and post-hoc analysis. Events are appended to a Recorder
// and can be streamed as JSON Lines (one event per line), the format
// cmd/peas-sim emits with -trace.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind labels an event type.
type Kind string

// Event kinds emitted by the simulation observers.
const (
	KindState  Kind = "state"  // node changed operation mode
	KindDeath  Kind = "death"  // node died (depletion or failure)
	KindPacket Kind = "packet" // frame delivered to a node
)

// Event is one timed simulation occurrence.
type Event struct {
	// T is the simulation time in seconds.
	T float64 `json:"t"`
	// Kind labels the event type.
	Kind Kind `json:"kind"`
	// Node is the primary node involved, -1 when not applicable.
	Node int `json:"node"`
	// Detail is a kind-specific human-readable payload.
	Detail string `json:"detail,omitempty"`
	// Value is a kind-specific numeric payload.
	Value float64 `json:"value,omitempty"`
}

// Recorder buffers events in order. It is safe for use from a single
// simulation goroutine; Flush may be called from any goroutine after the
// run completes.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	limit  int
}

// NewRecorder returns a recorder that keeps at most limit events
// (0 means unlimited). When the limit is reached, further events are
// dropped and counted.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Record appends an event.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit > 0 && len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, ev)
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the buffered events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// WriteJSONL streams the buffered events as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("encode event: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON Lines stream back into events, the inverse of
// WriteJSONL.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	var out []Event
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return out, fmt.Errorf("decode event %d: %w", len(out), err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// Summary aggregates a trace for quick inspection.
type Summary struct {
	Total  int          `json:"total"`
	ByKind map[Kind]int `json:"byKind"`
	FirstT float64      `json:"firstT"`
	LastT  float64      `json:"lastT"`
}

// Summarize computes a Summary of the buffered events.
func (r *Recorder) Summarize() Summary { return Summarize(r.Events()) }

// Summarize computes a Summary of events, as buffered or as read back by
// ReadJSONL.
func Summarize(events []Event) Summary {
	s := Summary{
		Total:  len(events),
		ByKind: make(map[Kind]int),
	}
	for i, ev := range events {
		s.ByKind[ev.Kind]++
		if i == 0 {
			s.FirstT = ev.T
		}
		s.LastT = ev.T
	}
	return s
}
