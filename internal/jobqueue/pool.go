package jobqueue

import (
	"context"
	"crypto/sha256"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/durable"
	"peas/internal/experiment"
	"peas/internal/metrics"
)

// RunStats is re-exported so service wire types do not force every
// client onto internal/experiment directly.
type RunStats = experiment.RunStats

// RunFunc executes one simulation. The pool defaults to experiment.Run;
// tests substitute instrumented wrappers (e.g. to count underlying
// executions for the singleflight guarantee).
type RunFunc func(cfg experiment.RunConfig) (*experiment.RunStats, error)

// Config configures a Pool.
type Config struct {
	// Workers bounds concurrent runs (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (0 = 64).
	// When the queue is full Submit fails fast with *QueueFullError.
	QueueDepth int
	// CacheCap bounds the result cache, the parked checkpoints and the
	// terminal jobs the job table keeps (0 = 1024 each); the oldest member
	// of each is evicted first. An evicted job's ID is unknown from then
	// on; its result stays reachable by key while the key is cached.
	CacheCap int
	// StateDir, when non-empty, enables persistence: admissions are
	// logged and drain checkpoints written at shutdown, so Recover can
	// resume interrupted work after a restart.
	StateDir string
	// CheckpointEvery is the spacing in simulated seconds (0 = 250) of the
	// boundaries at which a drain past its budget may checkpoint a
	// running job; no snapshot is taken at one before then. Only
	// meaningful with StateDir.
	CheckpointEvery float64
	// FS substitutes the filesystem the state store writes through
	// (nil = the real one). Tests inject a durable.FaultFS to exercise
	// ENOSPC, torn writes and crash points; peas-serve injects a slowed
	// FS under -durable-delay so the crash-soak harness can land SIGKILLs
	// inside write windows.
	FS durable.FS
	// Run substitutes the simulation executor (nil = experiment.Run).
	// Tests wrap it to count executions and to inject faults: a wrapper
	// that panics, or one that makes no event progress until its
	// Supervisor is stopped, is how the panic barrier and the watchdog
	// are exercised; no spec field asks for a fault.
	Run RunFunc
	// BeforeRun, when non-nil, runs on the worker goroutine after a job
	// is dequeued, and so already running, and before its simulation
	// starts. Tests use it to hold workers at a barrier.
	BeforeRun func(j *Job)
	// StallWindow enables watchdog stall detection: a running job whose
	// engine heartbeat does not advance for this long is preempted — into
	// the suspended state with its checkpoint when one was captured, else
	// into failed (0 disables stall detection; deadline enforcement is
	// always on).
	StallWindow time.Duration
	// WatchdogInterval overrides the supervision scan cadence (0 = auto:
	// 100ms, or StallWindow/4 when that is shorter, floored at 10ms).
	WatchdogInterval time.Duration
}

// Outcome reports how a submission was satisfied.
type Outcome string

const (
	// OutcomeAccepted: a new underlying run was queued.
	OutcomeAccepted Outcome = "accepted"
	// OutcomeCoalesced: an identical run is already queued or running;
	// the submission attached to it (same job ID).
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeCached: the result was served from the content-addressed
	// cache; the returned job is already done.
	OutcomeCached Outcome = "cached"
)

// Stats is a point-in-time view of the pool for /metrics.
type Stats struct {
	QueueDepth       int
	InFlight         int
	CacheEntries     int
	WallSecondsTotal float64
	Counters         map[string]uint64
}

// Pool is the worker pool plus queue and the key table: one entry per
// content key that is active (coalescing), parked (resumable) or cached.
type Pool struct {
	cfg      Config // defaults resolved by New
	counters *metrics.Counters

	// queueWait observes admission-to-dequeue delay per executed job;
	// runDur observes worker wall time per run. Both are histograms so
	// the service can report tail latency (p99), not just totals.
	queueWait *metrics.Histogram
	runDur    *metrics.Histogram

	quit chan struct{} // closed by Shutdown: the watchdog exits
	wg   sync.WaitGroup

	// drainStop asks running jobs to stop at their next cooperative
	// boundary (checkpoint capture or coverage sample).
	drainStop atomic.Bool

	mu        sync.Mutex
	work      sync.Cond // on mu: a job became runnable, or the pool stopped accepting
	accepting bool
	seq       int
	// queue holds the runnable jobs, oldest first; a worker takes the
	// head. pending counts the queued jobs off it: an admission whose
	// record is being synced, and a stopped job being settled. Together
	// they are the queued jobs, which QueueDepth bounds; running counts
	// the jobs on a worker.
	queue   []*Job
	pending int
	running int

	// jobs is the job table: every queued and running job, and the newest
	// CacheCap terminal jobs, which finished holds in the order they ended.
	// A job that leaves the table is held by nothing in the pool. active
	// lists the queued and running jobs (the active keys' jobs) in
	// admission order.
	jobs     map[string]*Job
	active   []*Job
	finished fifo[*Job]

	// keys holds every content key the pool knows, in exactly one state
	// each (see keyState). The parked and the cached keys are each a
	// bounded FIFO population of CacheCap members.
	keys       map[string]*entry
	parkedKeys fifo[*entry]
	cachedKeys fifo[*entry]
	// bodies finds a cached key's entry by the digest of the last request
	// body that hit it (see SubmitJSON).
	bodies map[[sha256.Size]byte]*entry

	// adm is the admission log (only with a state dir).
	adm admissions
}

// New builds a pool. Call Start to launch the workers.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 1024
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 250
	}
	if cfg.Run == nil {
		cfg.Run = experiment.Run
	}
	if cfg.FS == nil {
		cfg.FS = durable.OS{}
	}
	p := &Pool{
		cfg:        cfg,
		counters:   metrics.NewCounters(),
		queueWait:  metrics.NewHistogram(),
		runDur:     metrics.NewHistogram(),
		queue:      make([]*Job, 0, cfg.QueueDepth),
		quit:       make(chan struct{}),
		accepting:  true,
		jobs:       make(map[string]*Job),
		finished:   fifo[*Job]{cap: cfg.CacheCap},
		keys:       make(map[string]*entry),
		parkedKeys: fifo[*entry]{cap: cfg.CacheCap},
		cachedKeys: fifo[*entry]{cap: cfg.CacheCap},
		bodies:     make(map[[sha256.Size]byte]*entry),
	}
	p.work.L = &p.mu
	if cfg.StateDir != "" {
		p.replay()
	}
	return p
}

// Start launches the worker goroutines and the watchdog.
func (p *Pool) Start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.wg.Add(1)
	go p.watchdog()
}

// Counters exposes the shared operational counter set.
func (p *Pool) Counters() *metrics.Counters { return p.counters }

// QueueWait exposes the queue-wait histogram: seconds between a job's
// admission and a worker dequeuing it. Cached submissions never queue
// and are not observed.
func (p *Pool) QueueWait() *metrics.Histogram { return p.queueWait }

// RunDuration exposes the run-duration histogram: worker wall seconds
// per executed job (including suspended and failed runs).
func (p *Pool) RunDuration() *metrics.Histogram { return p.runDur }

// Get returns a job by ID. A terminal job is found until CacheCap newer
// jobs have ended.
func (p *Pool) Get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// Jobs returns the job table in ID order: at most CacheCap terminal jobs
// plus the queued and running ones. IDs are issued at admission, so this
// is admission order, except that the jobs a Recover on a running pool
// admits are listed by the IDs they were first admitted under.
func (p *Pool) Jobs() []*Job {
	p.mu.Lock()
	out := make([]*Job, 0, len(p.jobs))
	for _, j := range p.jobs {
		out = append(out, j)
	}
	p.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return compareIDs(a.ID, b.ID) })
	return out
}

// CachedResult returns the cached result for a content key.
func (p *Pool) CachedResult(key string) (*Result, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.keys[key]; e != nil && e.state == keyCached {
		return e.res, true
	}
	return nil, false
}

// queuedLocked is the number of queued jobs: admitted, not yet running,
// not yet ended.
func (p *Pool) queuedLocked() int { return len(p.queue) + p.pending }

// Stats returns the operational gauges and counter snapshot. Every
// gauge, and every counter in DESIGN §11's identities, changes in the
// critical section of the transition it counts, so one Stats call reads
// one state of the pool.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		QueueDepth:       p.queuedLocked(),
		InFlight:         p.running,
		CacheEntries:     p.cachedKeys.l.Len(),
		WallSecondsTotal: p.runDur.Sum(),
		Counters:         p.counters.Snapshot(),
	}
}

// Shutdown drains the pool: no new submissions are accepted, idle
// workers exit, and running jobs get until ctx's deadline to finish.
// Past the deadline, runs are asked to stop at their next cooperative
// boundary — jobs with persistence suspend with an on-disk checkpoint
// (resumable via Recover after a restart), the rest fail. Shutdown
// returns once every worker has exited, with the admission log closed.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.accepting {
		p.mu.Unlock()
		return ErrShuttingDown
	}
	p.accepting = false
	p.work.Broadcast()
	p.mu.Unlock()
	close(p.quit)

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	defer p.closeLog()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.drainStop.Store(true)
		<-done
		return ctx.Err()
	}
}
