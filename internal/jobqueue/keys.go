package jobqueue

import (
	"container/list"
	"crypto/sha256"
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
	// hit is the last request body that hit the cached key through
	// SubmitJSON (nil until such a hit). The pool's bodies index finds
	// the entry by its digest.
	hit *bodyHit
}

// bodyHit is a request body's SHA-256 and the normalized spec it decodes
// to.
type bodyHit struct {
	sum  [sha256.Size]byte
	spec *Spec
}

// fifo is a bounded first-in-first-out population: the newest member
// pushes out the oldest once the population exceeds its cap, and a member
// can leave early by its seat without a scan. The pool keeps three of
// CacheCap members each: the parked keys, the cached keys and the
// terminal jobs.
type fifo[T any] struct {
	cap int
	l   list.List // T, oldest at the front
}

// push seats v as the newest member and returns its seat. When that takes
// the population over its cap, the oldest member leaves and is returned
// as out (pushed true) for the caller to drop from its table.
func (f *fifo[T]) push(v T) (seat *list.Element, out T, pushed bool) {
	seat = f.l.PushBack(v)
	if f.l.Len() > f.cap {
		out, pushed = f.l.Remove(f.l.Front()).(T), true
	}
	return seat, out, pushed
}

// remove takes the member at seat out of the population early.
func (f *fifo[T]) remove(seat *list.Element) { f.l.Remove(seat) }

// seatKeyLocked makes e the newest member of the key population q. The
// key it pushes out leaves the key table, with its body digest, and is
// returned (nil while q fits its cap). It is the only way out of the
// cached state.
func (p *Pool) seatKeyLocked(q *fifo[*entry], e *entry) *entry {
	var old *entry
	var pushed bool
	if e.elem, old, pushed = q.push(e); !pushed {
		return nil
	}
	old.elem = nil
	delete(p.keys, old.key)
	if old.hit != nil {
		delete(p.bodies, old.hit.sum)
	}
	return old
}

// parkLocked files pk under e's key and returns the job ID of the parked
// pair it evicted ("" when none); the caller removes that pair's files
// outside the lock with dropPark.
func (p *Pool) parkLocked(e *entry, pk parked) (evictedID string) {
	e.state, e.park = keyParked, pk
	if old := p.seatKeyLocked(&p.parkedKeys, e); old != nil {
		return old.park.id
	}
	return ""
}

// listLocked enters a new job in the job table: Get finds it, and Jobs
// lists it in admission order.
func (p *Pool) listLocked(j *Job) {
	p.jobs[j.ID] = j
	p.order = append(p.order, j)
}

// retireLocked makes a terminal job the newest member of the terminal
// jobs. The job it pushes out leaves the job table: its ID is unknown from
// then on, while its result stays reachable by key for as long as the key
// is cached. Queued and running jobs are never members, so never evicted.
func (p *Pool) retireLocked(j *Job) {
	if p.jobs[j.ID] != j {
		return // a rolled-back admission, already out of the table
	}
	if _, old, pushed := p.finished.push(j); pushed {
		p.forgetLocked(old)
	}
}

// forgetLocked takes a job out of the job table. Its slot in p.order is
// left dead and swept once dead slots make up half the slice, so a job
// leaves in amortised O(1) and the live ones keep admission order.
func (p *Pool) forgetLocked(j *Job) {
	if p.jobs[j.ID] != j {
		return
	}
	delete(p.jobs, j.ID)
	p.orderDead++
	if 2*p.orderDead < len(p.order) {
		return
	}
	live := p.order[:0]
	for _, o := range p.order {
		if p.jobs[o.ID] == o {
			live = append(live, o)
		}
	}
	clear(p.order[len(live):])
	p.order, p.orderDead = live, 0
}

// dropPark discards an evicted parked pair's files.
func (p *Pool) dropPark(id string) {
	if id != "" {
		p.counters.Add("parked_evicted", 1)
		p.removeJobFiles(id, true)
	}
}

// fileAction is what a terminal transition does to the job's on-disk
// spec/checkpoint pair.
type fileAction uint8

const (
	// filesRemove: the job is over under this ID; retire its admission
	// and remove its checkpoint.
	filesRemove fileAction = iota
	// filesKeepSpec: leave the admission live so Recover restarts the job
	// from scratch after a restart.
	filesKeepSpec
	// filesCheckpoint: write the snapshot beside the admission so Recover
	// resumes the job bit-exactly.
	filesCheckpoint
	// filesPark: write the snapshot and a spec file marked Parked, then
	// retire the admission, so a restart reloads the pair as claimable —
	// never as runnable work.
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
// then, in one critical section, takes the job out of the gauge that
// counts it (p.running for a worker's job, p.pending otherwise), moves
// the key out of the active state, counts the ending and makes the job
// terminal — so whoever observes the terminal state (a waiter, an SSE
// stream) already finds the key table, the counters and the state dir
// consistent with it, and Stats never sees the job in two places or in
// none. The terminal job joins the retained terminal jobs in the same
// section, so nothing a woken waiter submits next can be retired before
// it. Each job is settled exactly once: by the worker that ran it, by the
// stop that took it off the queue, or by the submission that admitted it,
// when the admission rolls back or a stop lands while it is logged.
func (p *Pool) settle(job *Job, o outcome, gauge *int) {
	switch o.files {
	case filesRemove:
		p.removeJobFiles(job.ID, job.resume != nil)
	case filesCheckpoint:
		// A failed write leaves the admission alone: the job is still
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
			p.removeJobFiles(job.ID, true)
		}
		p.counters.Add("jobs_parked", 1)
	}

	var evictedPark string
	p.mu.Lock()
	*gauge--
	if e := p.keys[job.Key]; e != nil && e.job == job {
		e.job = nil
		switch {
		case o.res != nil:
			e.state, e.res = keyCached, o.res
			if p.seatKeyLocked(&p.cachedKeys, e) != nil {
				p.counters.Add("cache_evictions", 1)
			}
		case o.park != nil:
			evictedPark = p.parkLocked(e, *o.park)
		default:
			delete(p.keys, e.key)
		}
	}
	p.counters.Add(o.counter, 1)
	job.finish(o.state, o.res, o.err, time.Now())
	p.retireLocked(job)
	p.mu.Unlock()
	p.dropPark(evictedPark)
}
