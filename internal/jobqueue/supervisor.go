package jobqueue

import "time"

// Cancel requests cancellation of a job by ID. Unknown IDs report found
// false. Queued jobs transition to cancelled immediately; running jobs
// are preempted at the engine's next supervisor poll (checkpointable
// runs park a resumable snapshot first) and reach cancelled when the
// worker acknowledges; terminal jobs are left untouched (requested
// false). Cancellation is best-effort by design: a job that finishes
// before the preemption lands stays done.
func (p *Pool) Cancel(id string) (job *Job, found, requested bool) {
	j, ok := p.Get(id)
	if !ok {
		return nil, false, false
	}
	return j, true, p.stop(j, CauseCancel)
}

// stop routes a stop request to a job. A job caught while still queued
// is settled here — its worker will only ever dequeue a husk, so nobody
// else would release the key or retire the admission; a running job is
// settled by its worker once the preemption lands.
func (p *Pool) stop(j *Job, cause CancelCause) bool {
	queued, effective := j.requestStop(cause)
	if queued {
		p.settle(j, stopOutcome(j, cause))
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
	active := make([]*Job, 0, p.queued+p.cfg.Workers)
	for _, j := range p.order {
		if e := p.keys[j.Key]; e != nil && e.job == j {
			active = append(active, j)
		}
	}
	p.mu.Unlock()
	for _, j := range active {
		if at, ok := j.Deadline(); ok && now.After(at) {
			p.stop(j, CauseDeadline)
			continue
		}
		if w := p.cfg.StallWindow; w > 0 && j.checkStall(now, w) {
			p.counters.Add("watchdog_stalls", 1)
		}
	}
}
