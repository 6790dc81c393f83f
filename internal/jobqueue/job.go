package jobqueue

import (
	"context"
	"fmt"
	"sync"
	"time"

	"peas/internal/checkpoint"
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

// Job is one tracked submission. All exported accessors are safe for
// concurrent use; the worker pool mutates it through the unexported
// methods under the job's own lock.
type Job struct {
	// ID is the queue-assigned identity ("j-<seq>"). Coalesced
	// submissions share the primary job's ID.
	ID string
	// Key is the content address of the spec (see Spec.Key).
	Key string
	// Spec is the normalized submission.
	Spec *Spec

	mu         sync.Mutex
	state      State
	err        error
	result     *Result
	simT       float64
	working    int
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	// resume, when set, is the drain or park snapshot the next run
	// continues from (populated by Recover or a parked-checkpoint claim).
	resume *checkpoint.Snapshot
	// ckpt is the ID of the checkpoint file the job holds ("" for none):
	// the one resume was read from, or the one its run last wrote. It goes
	// with the job's record. Set before the job is queued, then by settle.
	ckpt string

	// ctx is the job's lifecycle context: it is cancelled (with a cause)
	// the moment the job reaches a terminal state, so request-scoped work
	// tied to the job — streaming, polling, waiting — can unwind through
	// the standard context mechanism.
	ctx       context.Context
	ctxCancel context.CancelCauseFunc

	// super is the engine supervisor of the current run (nil unless a
	// supervised run is executing). cancelCause records the first stop
	// request; deadlineAt is the absolute DeadlineSeconds expiry (zero
	// when unbounded), set by newJob and never written again.
	// lastBeat/lastBeatAt track watchdog stall detection.
	super       *sim.Supervisor
	cancelCause CancelCause
	deadlineAt  time.Time
	lastBeat    uint64
	lastBeatAt  time.Time

	subs    map[int]chan Event
	nextSub int
}

func newJob(id, key string, spec *Spec, now time.Time) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{
		ID:         id,
		Key:        key,
		Spec:       spec,
		state:      StateQueued,
		enqueuedAt: now,
		ctx:        ctx,
		ctxCancel:  cancel,
		subs:       make(map[int]chan Event),
	}
	if spec.DeadlineSeconds > 0 {
		j.deadlineAt = now.Add(time.Duration(spec.DeadlineSeconds * float64(time.Second)))
	}
	return j
}

// State returns the current lifecycle stage.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the outcome (nil until done).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the failure (nil unless failed).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Context returns the job's lifecycle context: it is done once the job
// reaches a terminal state, with context.Cause reporting why (the
// terminal error for failed/cancelled/deadline jobs). Callers can hang
// request-scoped work off it instead of polling State.
func (j *Job) Context() context.Context { return j.ctx }

// CancelRequested reports whether a stop has been requested (or already
// taken effect) for this job: every cancelled or deadline-killed job had
// its cause recorded first.
func (j *Job) CancelRequested() bool { return j.stopCause() != "" }

// Progress returns the last observed simulated time and working-node
// count.
func (j *Job) Progress() (simT float64, working int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.simT, j.working
}

// Times returns the enqueue, start and finish instants (zero when the
// stage has not been reached).
func (j *Job) Times() (enqueued, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enqueuedAt, j.startedAt, j.finishedAt
}

// QueueWait returns how long the job sat admitted-but-not-running and
// whether it has started. Jobs still queued report the wait so far, so
// the value is observable (and monotone) before a worker picks the job
// up; a job stopped in the queue waited from admission to its end, which
// for a cache hit, born done at its admission instant, is zero.
func (j *Job) QueueWait() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.startedAt.IsZero():
		return j.startedAt.Sub(j.enqueuedAt), true
	case j.state == StateQueued:
		return time.Since(j.enqueuedAt), false
	}
	return j.finishedAt.Sub(j.enqueuedAt), false
}

// beginRun moves a queued job to running. The pool calls it under p.mu
// as a worker takes the job off the queue.
func (j *Job) beginRun(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.startedAt = now
	j.lastBeatAt = now
	j.publishLocked(Event{Type: EventStarted, JobID: j.ID, Horizon: j.Spec.Horizon}, false)
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
// terminal event (rendered by the same mapping late subscribers replay),
// lifecycle-context cancellation. Every path that ends a job — cache hit,
// worker acknowledgement, queued stop, rolled-back admission — calls it
// exactly once.
func (j *Job) finish(state State, res *Result, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.result, j.err, j.finishedAt = state, res, err, now
	j.publishLocked(j.snapshotEventLocked(), true)
	// context.Cause never reports nil once a context is cancelled, so the
	// non-error terminal states get distinct causes of their own.
	switch {
	case err != nil:
		j.ctxCancel(err)
	case state == StateSuspended:
		j.ctxCancel(errJobSuspended)
	default:
		j.ctxCancel(errJobFinished)
	}
}

var (
	errJobFinished  = fmt.Errorf("jobqueue: job finished")
	errJobSuspended = fmt.Errorf("jobqueue: job suspended")
)
