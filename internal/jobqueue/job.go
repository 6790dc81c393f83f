package jobqueue

import (
	"sync"
	"time"

	"peas/internal/sim"
)

// State is a job's lifecycle stage.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: executing on a worker.
	StateRunning State = "running"
	// StateDone: finished successfully; Result is set.
	StateDone State = "done"
	// StateFailed: finished with an error (including invariant-oracle
	// violations on Check jobs); Err is set.
	StateFailed State = "failed"
	// StateSuspended: checkpointed during a drain or preempted by the
	// watchdog; the snapshot is persisted and the job resumes after a
	// restart + Recover.
	StateSuspended State = "suspended"
	// StateCancelled: stopped by an explicit Cancel request. Running
	// checkpointable work parks a resumable snapshot first, so a
	// resubmission of the same spec continues instead of restarting.
	StateCancelled State = "cancelled"
	// StateDeadline: the job's DeadlineSeconds budget expired before it
	// finished. Parks a snapshot exactly like StateCancelled.
	StateDeadline State = "deadline_exceeded"
)

// Terminal reports whether the state is final: the job will never run
// again under this ID and its worker slot (if it had one) is released.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateSuspended, StateCancelled, StateDeadline:
		return true
	}
	return false
}

// CancelCause records why a job was asked to stop; the first request
// wins and decides the terminal state.
type CancelCause string

const (
	// CauseCancel: an explicit Pool.Cancel (DELETE /jobs/{id}).
	CauseCancel CancelCause = "cancel"
	// CauseDeadline: the DeadlineSeconds budget expired.
	CauseDeadline CancelCause = "deadline"
	// CauseWatchdog: no event progress within the stall window.
	CauseWatchdog CancelCause = "watchdog"
)

// Summary is what a job keeps of its spec once it is terminal: the fields
// its wire form and its events read.
type Summary struct {
	Kind            string
	N               int
	Seed            int64
	Horizon         float64
	DeadlineSeconds float64
}

// summary picks the spec's Summary fields.
func (s *Spec) summary() Summary {
	return Summary{Kind: s.Kind, N: s.Network.N, Seed: s.Network.Seed, Horizon: s.Horizon, DeadlineSeconds: s.DeadlineSeconds}
}

// Job is one tracked submission. All exported accessors are safe for
// concurrent use; the worker pool mutates it through the unexported
// methods under the job's own lock. A terminal job keeps only what its
// readers read — ID, Key, Summary, state, outcome, progress, stop cause
// and the three instants — and drops the rest in finish, so the job
// table's retained jobs cost one small record each.
type Job struct {
	// ID is the queue-assigned identity ("j-<seq>"). Coalesced
	// submissions share the primary job's ID.
	ID string
	// Key is the content address of the spec (see Spec.Key).
	Key string
	// Summary is the part of the normalized submission the job keeps for
	// its whole life.
	Summary Summary

	mu          sync.Mutex
	state       State
	err         error
	result      *Result
	simT        float64
	working     int
	enqueuedAt  time.Time
	startedAt   time.Time
	finishedAt  time.Time
	cancelCause CancelCause // the first stop request

	// The fields below are the live job's; finish drops them.

	// spec is the normalized submission a worker runs.
	spec *Spec
	// ckpt is the ID of the checkpoint file the job holds ("" for none):
	// the drain's or park's checkpoint its run resumes from (named by
	// Recover or a claim), or the one its run last wrote. It goes with the
	// job's record. Set before the job is queued, then by settle.
	ckpt string
	// changed closes at the view's next change (see Watch); the first
	// watcher after a change makes it.
	changed chan struct{}
	// super is the engine supervisor of the current run (nil unless a
	// supervised run is executing). lastBeat/lastBeatAt track watchdog
	// stall detection.
	super      *sim.Supervisor
	lastBeat   uint64
	lastBeatAt time.Time
}

func newJob(id, key string, spec *Spec, now time.Time) *Job {
	return &Job{ID: id, Key: key, Summary: spec.summary(), state: StateQueued, enqueuedAt: now, spec: spec}
}

// deadline is the instant the job's DeadlineSeconds budget expires (zero
// when unbounded). Both terms are fixed at admission.
func (j *Job) deadline() time.Time {
	if j.Summary.DeadlineSeconds <= 0 {
		return time.Time{}
	}
	return j.enqueuedAt.Add(time.Duration(j.Summary.DeadlineSeconds * float64(time.Second)))
}

// View is one instant of a job: everything its readers read, taken under
// the job's lock at once, so no reader mixes two instants.
type View struct {
	State State
	// Err is the failure (nil unless the job failed or was stopped);
	// Result the outcome (nil until done).
	Err    error
	Result *Result
	// SimT and Working are the last observed simulated time and
	// working-node count.
	SimT    float64
	Working int
	// The enqueue, start and finish instants (zero when the stage has not
	// been reached).
	EnqueuedAt, StartedAt, FinishedAt time.Time
	// QueueWait is how long the job sat admitted but not running. A job
	// still queued reports the wait so far, so it is observable (and
	// monotone) before a worker picks the job up; a job stopped in the
	// queue waited from admission to its end, which for a cache hit, born
	// done at its admission instant, is zero.
	QueueWait time.Duration
	// CancelRequested reports that a stop was requested (or has taken
	// effect): every cancelled or deadline-killed job had its cause
	// recorded first.
	CancelRequested bool
}

// View returns the job's current view.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() View {
	v := View{State: j.state, Err: j.err, Result: j.result, SimT: j.simT, Working: j.working,
		EnqueuedAt: j.enqueuedAt, StartedAt: j.startedAt, FinishedAt: j.finishedAt,
		CancelRequested: j.cancelCause != ""}
	switch {
	case !j.startedAt.IsZero():
		v.QueueWait = j.startedAt.Sub(j.enqueuedAt)
	case j.state == StateQueued:
		v.QueueWait = time.Since(j.enqueuedAt)
	default:
		v.QueueWait = j.finishedAt.Sub(j.enqueuedAt)
	}
	return v
}

// State returns the current lifecycle stage.
func (j *Job) State() State { return j.View().State }

// Result returns the outcome (nil until done).
func (j *Job) Result() *Result { return j.View().Result }

// Err returns the failure (nil unless failed or stopped).
func (j *Job) Err() error { return j.View().Err }

// Times returns the enqueue, start and finish instants (zero when the
// stage has not been reached).
func (j *Job) Times() (enqueued, started, finished time.Time) {
	v := j.View()
	return v.EnqueuedAt, v.StartedAt, v.FinishedAt
}

// beginRun moves a queued job to running. The pool calls it under p.mu
// as a worker takes the job off the queue.
func (j *Job) beginRun(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.startedAt = now
	j.lastBeatAt = now
	j.changeLocked()
}

// attachSupervisor installs the engine supervisor of the job's current
// run. A stop requested between the job's start and its run (while
// BeforeRun holds the worker, say) is forwarded immediately so the run
// preempts at its first poll boundary.
func (j *Job) attachSupervisor(s *sim.Supervisor) {
	j.mu.Lock()
	j.super = s
	if j.cancelCause != "" {
		s.Stop.Store(true)
	}
	j.mu.Unlock()
}

// requestStop records a stop request and flags the running job's
// supervisor, if it has one. The first cause wins; requests on terminal
// or already-stopping jobs report effective false.
func (j *Job) requestStop(cause CancelCause) (effective bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.cancelCause != "" {
		return false
	}
	j.cancelCause = cause
	if j.super != nil {
		j.super.Stop.Store(true)
	}
	return true
}

// stopCause returns the recorded stop cause ("" when none).
func (j *Job) stopCause() CancelCause {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelCause
}

// checkStall advances watchdog bookkeeping for a running supervised job
// and fires a preemption when the heartbeat has not moved within window.
// It returns true exactly once per stall (the first cause wins).
func (j *Job) checkStall(now time.Time, window time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.super == nil {
		return false
	}
	beat := j.super.Beat.Load()
	if beat != j.lastBeat || j.lastBeatAt.IsZero() {
		j.lastBeat = beat
		j.lastBeatAt = now
		return false
	}
	if now.Sub(j.lastBeatAt) < window || j.cancelCause != "" {
		return false
	}
	j.cancelCause = CauseWatchdog
	j.super.Stop.Store(true)
	return true
}

// finish is the one terminal transition: state, outcome, finish instant,
// watchers woken to the terminal view, and the live job's fields dropped. Every path that
// ends a job — cache hit, worker acknowledgement, queued stop, rolled-back
// admission — calls it exactly once.
func (j *Job) finish(state State, res *Result, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.result, j.err, j.finishedAt = state, res, err, now
	j.changeLocked()
	j.spec, j.ckpt, j.super = nil, "", nil
}
