package jobqueue

import (
	"context"
	"fmt"
)

// Result is what a completed job produces. Identical submissions share
// one Result through the content-addressed cache.
type Result struct {
	// StateHash is the hex SHA-256 of the final snapshot's canonical
	// encoding — the bit-exact identity of the end state.
	StateHash string `json:"stateHash,omitempty"`
	// Stats holds the run's metrics, the engine's own counters and a
	// chaos job's per-fault-class counters among them. Its FinalState is
	// always nil: the pool keeps the end state's hash (StateHash), not the
	// state.
	Stats *RunStats `json:"stats,omitempty"`
	// Violations counts invariant-oracle findings on Check jobs (a
	// non-zero count fails the job, but the tally is still reported).
	Violations int `json:"violations,omitempty"`
	// WallSeconds is the worker wall time of the underlying run. Cache
	// hits report the original run's time.
	WallSeconds float64 `json:"wallSeconds"`
	// Events is the number of engine events executed by the segment that
	// completed the job: the whole run unless Resumed, else the part
	// after the checkpoint (the engine's event count is not in a
	// snapshot). The engine_events counter sums every segment.
	Events uint64 `json:"events,omitempty"`
	// Resumed reports that the run continued from a drain checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// EventType classifies job lifecycle events.
type EventType string

const (
	EventQueued    EventType = "queued"
	EventStarted   EventType = "started"
	EventProgress  EventType = "progress"
	EventSuspended EventType = "suspended"
	EventDone      EventType = "done"
	EventFailed    EventType = "failed"
	EventCancelled EventType = "cancelled"
	EventDeadline  EventType = "deadline_exceeded"
)

// Event is one entry of a job's event stream: a view of the job, as
// Job.Event renders it. The server forwards these verbatim over SSE.
type Event struct {
	Type EventType `json:"type"`
	// JobID identifies the job the event belongs to.
	JobID string `json:"jobId"`
	// SimT and Horizon describe progress in simulated seconds; Fraction
	// is SimT/Horizon (progress events).
	SimT     float64 `json:"simT,omitempty"`
	Horizon  float64 `json:"horizon,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	// Working is the working-node count at the sample (progress events).
	Working int `json:"working,omitempty"`
	// Error carries the failure message (failed events).
	Error string `json:"error,omitempty"`
	// Result carries the outcome (done events).
	Result *Result `json:"result,omitempty"`
}

// Watch returns the job's view and a channel that closes at the view's
// next change: the job's start, a progress stride, or its end. The
// channel is nil once the view is terminal, as nothing follows it. A
// follower that wakes reads the latest view, so views it was too slow to
// see coalesce into it.
func (j *Job) Watch() (View, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.viewLocked()
	if v.State.Terminal() {
		return v, nil
	}
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return v, j.changed
}

// changeLocked wakes every watcher of the view before this change.
func (j *Job) changeLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// Wait blocks until the job reaches a terminal state and returns its
// result. Failed jobs return their error, suspended jobs an error
// explaining that the job will resume after a restart.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	v, changed := j.Watch()
	for changed != nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-changed:
			v, changed = j.Watch()
		}
	}
	switch v.State {
	case StateDone:
		return v.Result, nil
	case StateSuspended:
		return nil, fmt.Errorf("jobqueue: job %s suspended by shutdown; resumes after restart", j.ID)
	default:
		return nil, v.Err
	}
}

// Event renders a view of the job as an event of its stream. Every state
// but running names its event; only a done view carries a result.
func (j *Job) Event(v View) Event {
	h := j.Summary.Horizon
	ev := Event{Type: EventType(v.State), JobID: j.ID, SimT: v.SimT, Horizon: h, Working: v.Working, Result: v.Result}
	if h > 0 {
		ev.Fraction = v.SimT / h
	}
	if v.State == StateRunning {
		ev.Type = EventStarted
		if v.SimT != 0 {
			ev.Type = EventProgress
		}
	}
	if v.Err != nil { // set by the failed, cancelled and deadline transitions only
		ev.Error = v.Err.Error()
	}
	return ev
}

// progressStride is the minimum horizon fraction between progress
// changes of a job's view, so a long run does not wake its followers at
// every 25-second coverage sample.
const progressStride = 0.01

func (j *Job) observeProgress(simT float64, working int) {
	j.mu.Lock()
	prev := j.simT
	j.simT = simT
	j.working = working
	if h := j.Summary.Horizon; h > 0 && (simT-prev) >= progressStride*h {
		j.changeLocked()
	}
	j.mu.Unlock()
}
