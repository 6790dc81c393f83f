package jobqueue

import (
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/experiment"
	"peas/internal/node"
	"peas/internal/oracle"
	"peas/internal/sim"
)

func (p *Pool) worker() {
	defer p.wg.Done()
	for job := p.next(); job != nil; job = p.next() {
		p.execute(job)
	}
}

// next waits for a runnable job and, in one critical section, takes it
// off the queue, moves it to running and counts it in flight. It returns
// nil once the pool stops accepting work: quitting is preferred over
// picking up more queued work, so a drain leaves not-yet-started jobs
// persisted instead of racing them against the deadline.
func (p *Pool) next() *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.accepting && len(p.queue) == 0 {
		p.work.Wait()
	}
	if !p.accepting {
		return nil
	}
	job := p.queue[0]
	p.queue = slices.Delete(p.queue, 0, 1)
	job.beginRun(time.Now())
	p.running++
	return job
}

// execute runs one job end to end on the calling worker goroutine: run,
// classify what came back, settle.
func (p *Pool) execute(job *Job) {
	if p.cfg.BeforeRun != nil {
		p.cfg.BeforeRun(job)
	}
	enqueued, started, _ := job.Times()
	p.queueWait.Observe(started.Sub(enqueued).Seconds())

	res, snap, err := p.runGuarded(job)
	wall := time.Since(started).Seconds()
	p.runDur.Observe(wall)
	if res != nil {
		res.WallSeconds = wall
		p.counters.Add("runs_executed", 1)
	}
	p.settle(job, p.classify(job, res, snap, err), &p.running)
}

// classify maps what a run returned, and the stop cause recorded against
// the job, onto its ending. A completed result always wins: a cancel that
// lands after the last event is a no-op, not a retroactive kill. The
// suspended rows share one rule — the admission is still live, so a
// restart re-runs the job, so the client must not be told it failed.
func (p *Pool) classify(job *Job, res *Result, snap *checkpoint.Snapshot, err error) outcome {
	cause := job.stopCause()
	preempted := snap != nil || err == errPreempted
	if preempted && cause == CauseWatchdog {
		p.counters.Add("watchdog_preemptions", 1)
	}
	suspended := outcome{state: StateSuspended, counter: "jobs_suspended", files: filesKeepSpec}
	switch {
	case res != nil:
		return outcome{state: StateDone, counter: "jobs_completed", res: res}
	case preempted && (cause == CauseCancel || cause == CauseDeadline):
		// Stopped mid-run. With a checkpoint in hand, park it under the
		// content key so a resubmission of the same spec resumes
		// bit-exactly instead of starting over; without one (chaos run, no
		// state dir) the work is simply dropped.
		o := stopOutcome(job, cause)
		if snap != nil {
			o.files, o.park, o.snap = filesPark, job.ID, snap
		}
		return o
	case snap != nil:
		// Drain checkpoint, or a stalled run the watchdog preempted with
		// one: persist it beside the spec so a restart resumes the job.
		suspended.files, suspended.snap = filesCheckpoint, snap
		return suspended
	case err == errAbortRestartable:
		// Interrupted by a drain with nothing to capture: the persisted
		// spec lets Recover restart it from scratch.
		return suspended
	case err == errPreempted && cause == CauseWatchdog:
		// Stalled with nothing to capture. The run is deterministic, so a
		// restart from the spec would replay the stall: the job fails, and
		// its admission is retired, state dir or not.
		err = fmt.Errorf("jobqueue: job %s preempted by watchdog: no event progress within %s", job.ID, p.cfg.StallWindow)
	case err == nil:
		// runGuarded returned neither result, snapshot nor error — only
		// reachable through a bug; fail loudly rather than wedge waiters.
		err = fmt.Errorf("jobqueue: job %s produced no outcome", job.ID)
	}
	return outcome{state: StateFailed, counter: "jobs_failed", err: err}
}

// runGuarded runs the job behind a panic barrier. A panicking run — a
// simulation bug, a poisoned spec — must cost exactly one job, not the
// worker goroutine (an unrecovered panic would kill the whole daemon):
// the job fails with the stack in its error, and the pool keeps serving.
func (p *Pool) runGuarded(job *Job) (res *Result, snap *checkpoint.Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.counters.Add("jobs_panicked", 1)
			res, snap = nil, nil
			err = fmt.Errorf("jobqueue: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return p.executeRun(job)
}

// executeRun performs a job. It returns a non-nil snapshot when the run
// was suspended at a drain checkpoint instead of finishing.
// A job must cost what its run costs: nothing here forces a collection or
// reads process-wide runtime statistics (CI greps for both), and the only
// snapshot that outlives the call is one a drain or a preemption asked for.
func (p *Pool) executeRun(job *Job) (*Result, *checkpoint.Snapshot, error) {
	spec := job.spec
	cfg := spec.RunConfig()

	// job.spec and job.ckpt are written under p.mu before the job joins
	// the queue (admitLocked, submit, Recover), and next took the job off
	// the queue under p.mu, so the lock orders these reads after the
	// writes. Nothing else writes them until the run is over: settle, on
	// this goroutine, writes the job's own checkpoint, and finish drops
	// both. Recover decodes a checkpoint only to judge it; the decoded
	// snapshot a run resumes from is made here and lives as long as the run.
	if job.ckpt != "" {
		cfg.Resume = p.loadCheckpoint(job.ckpt)
	}

	var (
		eng     *sim.Engine
		stats   *experiment.RunStats
		ran     bool // Run returned rather than panicked
		checker *oracle.Checker
		aborted bool
		snap    *checkpoint.Snapshot // where a drain or a preemption stopped the run
	)
	cfg.OnNetwork = func(net *node.Network) {
		eng = net.Engine
		if spec.Check {
			checker = oracle.Attach(net, oracle.DefaultConfig())
		}
	}
	// The engine's work is counted however the segment ends — completed,
	// parked, suspended, aborted or panicked — so the counters are what
	// the workers burned, not what the finished jobs cost. The engine is
	// borrowed until Run returns, so a returned run's figures come from
	// its RunStats; a panicked run never hands its storage back, and its
	// engine is still its own to read.
	defer func() {
		var events, structs uint64
		switch {
		case stats != nil:
			events, structs = stats.EngineEvents, stats.EventStructs
		case !ran && eng != nil:
			es := eng.Stats()
			events, structs = es.Events, es.EventStructs
		default:
			return
		}
		p.counters.Add("engine_events", events)
		p.counters.Add("engine_event_structs", structs)
	}()
	// The supervisor is the cancel/deadline/watchdog control surface of
	// the run: the engine heartbeats through it and honors its stop flag
	// at the next poll boundary.
	super := &sim.Supervisor{}
	job.attachSupervisor(super)
	cfg.Supervisor = super
	checkpointable := p.cfg.StateDir != "" && spec.Kind != KindChaos
	cfg.OnSample = func(t float64, working int, _ []float64) {
		job.observeProgress(t, working)
		// Non-checkpointable runs stop cooperatively at a coverage
		// sample when a drain passes its deadline; checkpointable runs
		// wait for the next capture boundary so they resume cleanly.
		if !checkpointable && p.drainStop.Load() && eng != nil {
			aborted = true
			eng.Stop()
		}
	}
	if checkpointable {
		// The cadence only marks the boundaries at which a drain past its
		// budget may stop the run; nothing is captured at one until then.
		cfg.CheckpointEvery = p.cfg.CheckpointEvery
		cfg.CheckpointDue = p.drainStop.Load
		cfg.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
			snap = s
			return true
		}
		// A supervisor preemption captures at the stop point, so the
		// interrupted work is parked or suspended, never discarded.
		cfg.OnPreempt = func(s *checkpoint.Snapshot) { snap = s }
	}

	stats, err := p.cfg.Run(cfg)
	ran = true
	if err != nil {
		return nil, nil, err
	}
	if snap != nil {
		return nil, snap, nil
	}
	if stats.Preempted {
		// Preempted but nothing to capture (chaos or no state dir).
		return nil, nil, errPreempted
	}
	if aborted {
		if p.cfg.StateDir != "" {
			// The admission is still live; Recover restarts the job
			// from scratch (chaos state cannot checkpoint).
			return nil, nil, errAbortRestartable
		}
		return nil, nil, fmt.Errorf("jobqueue: job aborted by shutdown before completion")
	}

	res := &Result{Stats: stats, Resumed: cfg.Resume != nil}
	if stats.FinalState != nil {
		res.StateHash = stats.FinalState.StateHashHex()
		// Only the hash is ever read again; the result lives as long as
		// the job table does, and must not pin the whole end state.
		stats.FinalState = nil
	}
	res.Events = stats.EngineEvents
	if checker != nil {
		res.Violations = len(checker.Violations()) + checker.Dropped()
		if cerr := checker.Err(); cerr != nil {
			return nil, nil, fmt.Errorf("jobqueue: invariant oracle: %w", cerr)
		}
	}
	return res, nil, nil
}

// errAbortRestartable marks a chaos run interrupted by a drain whose
// spec remains persisted; execute maps it to the suspended state.
var errAbortRestartable = fmt.Errorf("jobqueue: aborted by shutdown; restartable from spec")

// errPreempted marks a run stopped by its supervisor without a
// checkpoint to show for it; execute maps it to a terminal state by the
// job's recorded stop cause.
var errPreempted = fmt.Errorf("jobqueue: preempted by supervisor")
