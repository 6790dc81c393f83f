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

// Event is one entry of a job's event stream. The server forwards these
// verbatim over SSE.
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

// subscriberBuffer bounds each subscriber's backlog. A slow consumer
// loses intermediate progress events rather than stalling the worker,
// but never the terminal event: a full buffer gives up its oldest event
// to make room for it.
const subscriberBuffer = 64

// Subscribe returns a channel of the job's events plus a cancel
// function. The current state is replayed as a first synthetic event so
// late subscribers see a consistent stream; the channel is closed after
// a terminal event (done/failed/suspended) or on cancel. A terminal job
// has nothing more to publish: its channel holds the one snapshot event,
// already closed, with no subscriber buffer behind it.
func (j *Job) Subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		ch := make(chan Event, 1)
		ch <- j.snapshotEventLocked()
		close(ch)
		return ch, func() {}
	}
	ch := make(chan Event, subscriberBuffer)
	ch <- j.snapshotEventLocked()
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok { // not yet closed by a terminal event
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// Wait blocks until the job reaches a terminal state and returns its
// result. Failed jobs return their error, suspended jobs an error
// explaining that the job will resume after a restart.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	j.mu.Lock()
	if !j.state.Terminal() {
		if j.done == nil {
			j.done = make(chan struct{})
		}
		done := j.done
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-done: // closed by finish, once the state is terminal
		}
		j.mu.Lock()
	}
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateSuspended:
		return nil, fmt.Errorf("jobqueue: job %s suspended by shutdown; resumes after restart", j.ID)
	default:
		return nil, j.err
	}
}

// snapshotEventLocked renders the current state as an event.
func (j *Job) snapshotEventLocked() Event {
	h := j.Summary.Horizon
	ev := Event{JobID: j.ID, SimT: j.simT, Horizon: h, Working: j.working}
	if h > 0 {
		ev.Fraction = j.simT / h
	}
	switch j.state {
	case StateQueued:
		ev.Type = EventQueued
	case StateRunning:
		if j.startedAt.IsZero() || j.simT == 0 {
			ev.Type = EventStarted
		} else {
			ev.Type = EventProgress
		}
	case StateDone:
		ev.Type = EventDone
		ev.Result = j.result
	case StateFailed:
		ev.Type = EventFailed
	case StateSuspended:
		ev.Type = EventSuspended
	case StateCancelled:
		ev.Type = EventCancelled
	case StateDeadline:
		ev.Type = EventDeadline
	}
	if j.err != nil { // set by the failed, cancelled and deadline transitions only
		ev.Error = j.err.Error()
	}
	return ev
}

// publishLocked fans ev out to subscribers. A non-terminal event is
// dropped for a subscriber whose buffer is full; a terminal one first
// discards the oldest buffered event, then closes the channel. Only the
// publisher sends, and it holds j.mu, so once there is room the send
// cannot block.
func (j *Job) publishLocked(ev Event, terminal bool) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			if terminal {
				select {
				case <-ch:
				default: // the subscriber made room itself
				}
				ch <- ev
			}
		}
		if terminal {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// progressStride is the minimum horizon fraction between emitted
// progress events, so a long run does not flood subscribers with every
// 25-second coverage sample.
const progressStride = 0.01

func (j *Job) observeProgress(simT float64, working int) {
	j.mu.Lock()
	prev := j.simT
	j.simT = simT
	j.working = working
	h := j.Summary.Horizon
	if h > 0 && (simT-prev) >= progressStride*h {
		ev := Event{Type: EventProgress, JobID: j.ID, SimT: simT, Horizon: h,
			Fraction: simT / h, Working: working}
		j.publishLocked(ev, false)
	}
	j.mu.Unlock()
}
