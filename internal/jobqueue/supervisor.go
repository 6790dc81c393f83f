package jobqueue

import (
	"slices"
	"time"
)

// Cancel requests cancellation of a job by ID. Unknown IDs report found
// false. A queued job is cancelled before Cancel returns (one whose
// admission is still being synced, as soon as its submission has logged
// it); running jobs are preempted at the engine's next supervisor poll
// (checkpointable runs park a resumable snapshot first) and reach
// cancelled when the worker acknowledges; terminal jobs are left
// untouched (requested false). Cancellation is best-effort by design: a
// job that finishes before the preemption lands stays done.
func (p *Pool) Cancel(id string) (job *Job, found, requested bool) {
	j, ok := p.Get(id)
	if !ok {
		return nil, false, false
	}
	return j, true, p.stop(j, CauseCancel)
}

// stop routes a stop request to a job. A job on the queue leaves it in
// the critical section that records the stop, so no worker can take it,
// and is settled here; until settle ends it, it counts as pending, still
// queued. A running job is settled by its worker once the preemption
// lands, and a job whose admission is being synced by the submission that
// admitted it, once the record is in the log.
func (p *Pool) stop(j *Job, cause CancelCause) bool {
	p.mu.Lock()
	effective := j.requestStop(cause)
	i := slices.Index(p.queue, j) // a job on the queue has no stop yet: effective
	if i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
		p.pending++
	}
	p.mu.Unlock()
	if i >= 0 {
		p.settle(j, stopOutcome(j, cause), &p.pending)
	}
	return effective
}

// watchdog is the supervision loop: on every tick it enforces deadline
// budgets on queued and running jobs and, when a stall window is
// configured, preempts running jobs whose engine heartbeat stopped
// advancing. It exits with the workers on Shutdown.
func (p *Pool) watchdog() {
	defer p.wg.Done()
	interval := p.cfg.WatchdogInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
		if w := p.cfg.StallWindow; w > 0 && w/4 < interval {
			interval = w / 4
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case now := <-tick.C:
			p.superviseOnce(now)
		}
	}
}

// superviseOnce runs one watchdog scan over the non-terminal jobs (the
// active keys' jobs) in admission order, so the jobs one scan stops end,
// and retire, in a repeatable order.
func (p *Pool) superviseOnce(now time.Time) {
	p.mu.Lock()
	active := slices.Clone(p.active)
	p.mu.Unlock()
	for _, j := range active {
		if at := j.deadline(); !at.IsZero() && now.After(at) {
			p.stop(j, CauseDeadline)
			continue
		}
		if w := p.cfg.StallWindow; w > 0 && j.checkStall(now, w) {
			p.counters.Add("watchdog_stalls", 1)
		}
	}
}
