package jobqueue

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"time"
)

// QueueFullError is the admission-control rejection: the queue is at
// capacity and the caller should retry after the suggested delay. The
// HTTP layer maps it to 429 with a Retry-After header.
type QueueFullError struct {
	// Depth is the queue capacity that was exhausted.
	Depth int
	// RetryAfter is the suggested backoff, derived from the observed
	// mean job wall time and the worker count.
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobqueue: queue full (%d queued); retry after %s", e.Depth, e.RetryAfter)
}

// ErrShuttingDown rejects submissions during a drain. The HTTP layer maps
// it to 503 with a Retry-After header: the next boot accepts the job.
var ErrShuttingDown = fmt.Errorf("jobqueue: shutting down")

// PersistError is the admission-time durability rejection: the pool
// could not log the job's admission (append its record to the admission
// log and fsync it), so accepting the job would promise a recovery
// guarantee it cannot keep. The submission is rolled back and the caller
// should retry once the disk recovers (the HTTP layer maps it to 503
// with a Retry-After header). Unwrap exposes the underlying disk error
// (e.g. ENOSPC).
type PersistError struct {
	Err error
}

func (e *PersistError) Error() string {
	return fmt.Sprintf("jobqueue: cannot log job admission: %v", e.Err)
}

func (e *PersistError) Unwrap() error { return e.Err }

// DeadlineInfeasibleError is the deadline-aware admission rejection: the
// observed queue-wait distribution says the job would blow its
// DeadlineSeconds budget before a worker even picks it up, so admitting
// it would only burn a queue slot on doomed work. The HTTP layer maps it
// to 429 with a Retry-After header, like QueueFullError.
type DeadlineInfeasibleError struct {
	// DeadlineSeconds is the budget the submission carried.
	DeadlineSeconds float64
	// EstimatedWait is the queue-wait estimate that exceeded it.
	EstimatedWait time.Duration
	// RetryAfter is the suggested backoff.
	RetryAfter time.Duration
}

func (e *DeadlineInfeasibleError) Error() string {
	return fmt.Sprintf("jobqueue: %gs deadline infeasible (estimated queue wait %s); retry after %s",
		e.DeadlineSeconds, e.EstimatedWait, e.RetryAfter)
}

// Submit admits a job. The spec is normalized in place; invalid specs
// fail immediately. What happens next is the key's state: an active key
// coalesces the submission onto its job, a cached one serves its result,
// a parked or absent one admits a new run — unless the queue is full
// (*QueueFullError) or the deadline cannot be met.
func (p *Pool) Submit(spec *Spec) (*Job, Outcome, error) {
	return p.submit(spec, nil)
}

// SubmitJSON admits the job a JSON spec body describes: DecodeSpec, then
// Submit, with the same outcomes and counters. A decode error comes back
// as "decoding job spec: …". A cache hit remembers the SHA-256 of its
// body on the key's entry, so the next byte-identical body is served from
// the key table at once, without DecodeSpec, Normalize or Key; the job it
// gets shares the spec recorded with the digest, which nobody writes
// after admission. An entry holds one digest, the last body that hit it,
// and drops it when the key leaves the cache. A body that misses leaves
// nothing behind.
func (p *Pool) SubmitJSON(body []byte) (*Job, Outcome, error) {
	sum := sha256.Sum256(body)
	now := time.Now()
	p.mu.Lock()
	if e := p.bodies[sum]; e != nil && p.accepting {
		p.counters.Add("jobs_submitted", 1)
		job := p.serveLocked(e, e.hit.spec, now)
		p.mu.Unlock()
		return job, OutcomeCached, nil
	}
	p.mu.Unlock()
	spec, err := DecodeSpec(bytes.NewReader(body))
	if err != nil {
		return nil, "", fmt.Errorf("decoding job spec: %w", err)
	}
	return p.submit(spec, &sum)
}

// submit is Submit; body, when set, is the digest of the request body the
// spec was decoded from, recorded on the key's entry if the key is cached.
func (p *Pool) submit(spec *Spec, body *[sha256.Size]byte) (*Job, Outcome, error) {
	if err := spec.Normalize(); err != nil {
		return nil, "", err
	}
	key := spec.Key()
	now := time.Now()

	p.mu.Lock()
	if !p.accepting {
		p.mu.Unlock()
		return nil, "", ErrShuttingDown
	}
	p.counters.Add("jobs_submitted", 1)

	e := p.keys[key]
	switch {
	case e != nil && e.state == keyActive:
		primary := e.job
		p.counters.Add("jobs_coalesced", 1)
		p.mu.Unlock()
		return primary, OutcomeCoalesced, nil
	case e != nil && e.state == keyCached:
		job := p.serveLocked(e, spec, now)
		if body != nil {
			p.rememberBodyLocked(e, *body, spec)
		}
		p.mu.Unlock()
		return job, OutcomeCached, nil
	}
	p.counters.Add("cache_misses", 1)

	if err := p.rejectLocked(spec); err != nil {
		p.mu.Unlock()
		return nil, "", err
	}
	job, claimed := p.admitLocked(p.nextIDLocked(), key, spec, now)
	p.mu.Unlock()

	// Persist BEFORE the job becomes runnable. Accepted must mean
	// recoverable: once a worker can take the job, a crash has to find
	// its admission in the log, so a persistence failure rolls the
	// admission back and rejects with *PersistError instead of accepting
	// work that a crash would silently lose. The job leaves the table
	// first, so it is never retained. Coalesced submissions may have
	// attached during the unlocked persist window; settling the job as
	// failed resolves them, and the key falls back to the park it had
	// claimed.
	if err := p.logRecord(jobRecord{ID: job.ID, Key: key, Spec: spec, Claims: claimed}); err != nil {
		perr := &PersistError{Err: err}
		p.mu.Lock()
		p.forgetLocked(job)
		p.mu.Unlock()
		p.settle(job, outcome{state: StateFailed, counter: "persist_errors", err: perr, park: claimed}, &p.pending)
		return nil, "", perr
	}
	p.mu.Lock()
	if claimed != "" {
		// The claim is logged: the parked checkpoint is the new job's,
		// until its own lands or it ends; its run reads it.
		job.ckpt = claimed
		p.counters.Add("parked_resumed", 1)
	}
	if cause := job.stopCause(); cause != "" {
		// Stopped while its admission was being logged: the stop left the
		// job to this submission, which settles it now that the record
		// its ending retires is in the log.
		p.mu.Unlock()
		p.settle(job, stopOutcome(job, cause), &p.pending)
		return job, OutcomeAccepted, nil
	}
	p.enqueueLocked(job)
	p.mu.Unlock()
	return job, OutcomeAccepted, nil
}

// enqueueLocked makes a pending job runnable: the newest on the queue,
// with a worker woken for it.
func (p *Pool) enqueueLocked(job *Job) {
	p.pending--
	p.queue = append(p.queue, job)
	p.work.Signal()
}

// serveLocked answers a submission from the cached entry e, and counts
// the cache hit: a new job, born done with e's result. Nobody else can
// hold the job before it is listed, so it is finished first and enters
// the table terminal.
func (p *Pool) serveLocked(e *entry, spec *Spec, now time.Time) *Job {
	job := newJob(p.nextIDLocked(), e.key, spec, now)
	job.finish(StateDone, e.res, nil, now)
	p.listLocked(job)
	p.retireLocked(job)
	p.counters.Add("cache_hits", 1)
	return job
}

// rememberBodyLocked records on the cached entry e the digest of a body
// that just hit it, with the body's normalized spec, in place of the
// digest it held.
func (p *Pool) rememberBodyLocked(e *entry, sum [sha256.Size]byte, spec *Spec) {
	if e.hit != nil {
		delete(p.bodies, e.hit.sum)
	}
	e.hit = &bodyHit{sum: sum, spec: spec}
	p.bodies[sum] = e
}

// nextIDLocked allocates the next queue-assigned job ID.
func (p *Pool) nextIDLocked() string {
	p.seq++
	return jobID(p.seq)
}

// admitLocked registers a new active job under p.mu — job table, key
// table, active jobs, one queue slot, pending until enqueueLocked makes
// it runnable — for Submit (a fresh ID) and Recover (the ID on disk)
// alike. The key must be absent or parked. A parked checkpoint from a
// cancelled or deadline-killed run of this exact spec is claimed here:
// the claimed park's ID is returned, and the caller logs the claim, or
// restores the park if the admission rolls back, and names the park's
// checkpoint as the job's, which its run resumes from where the
// preempted one stopped instead of restarting. Determinism makes the
// splice invisible — the final StateHash is the uninterrupted run's.
func (p *Pool) admitLocked(id, key string, spec *Spec, now time.Time) (job *Job, claimed string) {
	job = newJob(id, key, spec, now)
	p.listLocked(job)
	p.pending++
	e := p.keys[key]
	if e == nil {
		e = &entry{key: key}
		p.keys[key] = e
	} else {
		p.parkedKeys.remove(e.elem)
		e.elem = nil
		claimed, e.park = e.park, ""
	}
	e.state, e.job = keyActive, job
	p.active = append(p.active, job)
	return job, claimed
}

// rejectLocked is admission control (under p.mu): a full queue rejects
// with *QueueFullError (queue_full_rejected), and a deadline budget the
// job could not plausibly start within with *DeadlineInfeasibleError
// (deadline_rejected). With an empty queue any
// deadline is feasible — a worker reaches the job next. With a backlog,
// the median of the observed queue-wait histogram is the estimate; it
// needs a minimum sample count so a cold service never rejects on noise.
func (p *Pool) rejectLocked(spec *Spec) error {
	if p.queuedLocked() >= p.cfg.QueueDepth {
		p.counters.Add("queue_full_rejected", 1)
		return &QueueFullError{Depth: p.cfg.QueueDepth, RetryAfter: p.retryAfterLocked()}
	}
	const minSamples = 8
	if spec.DeadlineSeconds <= 0 || p.queuedLocked() == 0 || p.queueWait.Count() < minSamples {
		return nil
	}
	wait := p.queueWait.Quantile(0.5)
	if wait <= spec.DeadlineSeconds {
		return nil
	}
	p.counters.Add("deadline_rejected", 1)
	return &DeadlineInfeasibleError{
		DeadlineSeconds: spec.DeadlineSeconds,
		EstimatedWait:   time.Duration(wait * float64(time.Second)),
		RetryAfter:      p.retryAfterLocked(),
	}
}

// retryAfterLocked estimates when a queue slot should free: the mean
// worker wall time over every executed run — whatever its ending, since a
// cancelled or failed run held its worker just the same — scaled by the
// queue backlog per worker.
func (p *Pool) retryAfterLocked() time.Duration {
	mean := 2 * time.Second
	if m := p.runDur.Mean(); m > 0 {
		mean = time.Duration(m * float64(time.Second))
	}
	per := float64(p.queuedLocked()+1) / float64(p.cfg.Workers)
	d := time.Duration(math.Ceil(per)) * mean
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}
