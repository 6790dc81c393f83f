package jobqueue

import (
	"container/list"
	"fmt"
	"time"

	"peas/internal/checkpoint"
)

// keyState is what the pool currently holds for one content key. A key is
// always in exactly one state; a key with no entry is absent. The full
// transition table is DESIGN.md §11.
type keyState uint8

const (
	// keyActive: a job for the key is queued or running; identical
	// submissions coalesce onto it.
	keyActive keyState = iota + 1
	// keyParked: a cancelled/deadline-killed run left a resumable
	// checkpoint; the next submission of the key claims it and continues
	// where the preempted run stopped, bit-exactly.
	keyParked
	// keyCached: a run completed; submissions are served its result.
	keyCached
)

// parked is one preempted run's leftover: the snapshot plus the job ID its
// on-disk spec/checkpoint pair is filed under.
type parked struct {
	id   string
	snap *checkpoint.Snapshot
}

// entry is one row of the key table. Only the field its state names is
// set: job (active), park (parked) or res (cached).
type entry struct {
	key   string
	state keyState
	job   *Job
	park  parked
	res   *Result
	// elem is the entry's seat in its population's FIFO (parked, cached).
	elem *list.Element
}

// fifo is the bounded first-in-first-out population both the cached and
// the parked keys live in: the newest entry pushes out the oldest once
// the population exceeds its cap, and a member can leave early (a parked
// key claimed by a resubmission) without a scan.
type fifo struct {
	cap  int
	keys map[string]*entry // the table the members are listed in
	l    list.List         // *entry, oldest at the front
}

// push seats e as the newest member. The member that pushes out (nil
// while the population fits its cap) leaves the key table with its seat
// and is returned for the caller to account for.
func (f *fifo) push(e *entry) (evicted *entry) {
	e.elem = f.l.PushBack(e)
	if f.l.Len() <= f.cap {
		return nil
	}
	evicted = f.l.Front().Value.(*entry)
	f.remove(evicted)
	delete(f.keys, evicted.key)
	return evicted
}

func (f *fifo) remove(e *entry) {
	f.l.Remove(e.elem)
	e.elem = nil
}

// parkLocked files pk under e's key and returns the job ID of the parked
// pair it evicted ("" when none); the caller removes that pair's files
// outside the lock with dropPark.
func (p *Pool) parkLocked(e *entry, pk parked) (evictedID string) {
	e.state, e.park = keyParked, pk
	if old := p.parkedKeys.push(e); old != nil {
		return old.park.id
	}
	return ""
}

// dropPark discards an evicted parked pair's files.
func (p *Pool) dropPark(id string) {
	if id != "" {
		p.counters.Add("parked_evicted", 1)
		p.removeJobFiles(id)
	}
}

// fileAction is what a terminal transition does to the job's on-disk
// spec/checkpoint pair.
type fileAction uint8

const (
	// filesRemove: the job is over under this ID; remove both files.
	filesRemove fileAction = iota
	// filesKeepSpec: leave the persisted spec so Recover restarts the job
	// from scratch after a restart.
	filesKeepSpec
	// filesCheckpoint: write the snapshot beside the spec so Recover
	// resumes the job bit-exactly.
	filesCheckpoint
	// filesPark: write the snapshot and mark the spec Parked, so a restart
	// reloads the pair as claimable — never as runnable work.
	filesPark
)

// outcome is everything settle needs to know about how a job ended.
type outcome struct {
	state   State  // terminal job state
	counter string // the one counter this ending bumps
	files   fileAction
	res     *Result // done
	err     error   // failed, cancelled, deadline_exceeded
	// snap is the checkpoint filesCheckpoint writes.
	snap *checkpoint.Snapshot
	// park, when set, is what the key falls back to instead of going
	// absent: the job's own snapshot (written by filesPark) or the claim a
	// rolled-back admission had taken.
	park *parked
}

// stopOutcome is the cancel/deadline cause→(state, counter, error) mapping,
// shared by the queued stop and the worker's acknowledgement of a running
// one.
func stopOutcome(j *Job, cause CancelCause) outcome {
	if cause == CauseDeadline {
		return outcome{state: StateDeadline, counter: "jobs_deadline_exceeded",
			err: fmt.Errorf("jobqueue: job %s exceeded its %gs deadline", j.ID, j.Spec.DeadlineSeconds)}
	}
	return outcome{state: StateCancelled, counter: "jobs_cancelled",
		err: fmt.Errorf("jobqueue: job %s cancelled", j.ID)}
}

// settle is the one terminal path: it applies the outcome's file action,
// moves the key out of the active state, counts the ending, and only then
// makes the job terminal — so whoever observes the terminal state (a
// waiter, an SSE stream) already finds the key table, the counters and
// the state dir consistent with it. Each job is settled exactly once: by
// the worker that ran it, by the stop that caught it queued, or by the
// admission that rolled it back.
func (p *Pool) settle(job *Job, o outcome) {
	switch o.files {
	case filesRemove:
		p.removeJobFiles(job.ID)
	case filesCheckpoint:
		// A failed write leaves the spec alone on disk: the job is still
		// suspended, Recover just restarts it from scratch — by
		// determinism the same result.
		if err := p.persistSnapshot(job, o.snap); err != nil {
			p.counters.Add("persist_errors", 1)
		}
	case filesPark:
		// Disk park failed: drop the files so a restart cannot see a
		// half-written pair, and keep the in-memory entry (its loss on
		// crash costs only the resume optimization).
		if err := p.persistPark(job, o.park.snap); err != nil {
			p.counters.Add("persist_errors", 1)
			p.removeJobFiles(job.ID)
		}
		p.counters.Add("jobs_parked", 1)
	}

	var evictedPark string
	p.mu.Lock()
	if e := p.keys[job.Key]; e != nil && e.job == job {
		e.job = nil
		switch {
		case o.res != nil:
			e.state, e.res = keyCached, o.res
			if p.cachedKeys.push(e) != nil {
				p.counters.Add("cache_evictions", 1)
			}
		case o.park != nil:
			evictedPark = p.parkLocked(e, *o.park)
		default:
			delete(p.keys, e.key)
		}
	}
	p.mu.Unlock()
	p.dropPark(evictedPark)

	p.counters.Add(o.counter, 1)
	job.finish(o.state, o.res, o.err, time.Now())
}
