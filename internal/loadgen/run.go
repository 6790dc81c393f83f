package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/client"
	"peas/internal/jobqueue"
	"peas/internal/server/api"
)

// Run modes.
const (
	// ModeClosed drives the service with a fixed number of concurrent
	// submitters, each waiting for its job's terminal state before
	// taking the next item (throughput adapts to the server).
	ModeClosed = "closed"
	// ModeOpen submits at the plan's seeded Poisson arrival times
	// regardless of completions (arrival rate is fixed; queueing shows
	// up as latency, the production-facing regime).
	ModeOpen = "open"
)

// Config configures one load run.
type Config struct {
	// Mix is the workload synthesis configuration.
	Mix Mix
	// Mode is ModeClosed (default) or ModeOpen.
	Mode string
	// Concurrency is the closed-loop submitter count (0 = 8). Open
	// loop ignores it: every arrival gets its own goroutine.
	Concurrency int
	// Retry bounds SubmitWithRetry on 429s.
	Retry client.RetryPolicy
	// JobTimeout bounds one submission end to end (0 = 120s); a job
	// that is not terminal by then counts as timed out — lost.
	JobTimeout time.Duration
	// SLO is the pass/fail contract evaluated into the report.
	SLO SLO
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeClosed
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	return c
}

// hashLedger records the StateHash observed per content key and flags
// divergence. The engine is bit-exact deterministic, so two
// observations of one key — fresh, cached, resumed after a drain, or
// restarted from a persisted spec — must agree; a mismatch is a
// correctness failure, not noise. The soak harness shares one ledger
// across every cycle so reproduction is checked across restarts.
type hashLedger struct {
	mu         sync.Mutex
	byKey      map[string]string
	mismatches int
	resumed    int
}

func newHashLedger() *hashLedger { return &hashLedger{byKey: make(map[string]string)} }

// observe records one (key, hash) observation; empty hashes (stubbed
// runs) are ignored. It returns false on divergence.
func (l *hashLedger) observe(key, hash string, resumed bool) bool {
	if hash == "" {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if resumed {
		l.resumed++
	}
	if prev, ok := l.byKey[key]; ok {
		if prev != hash {
			l.mismatches++
			return false
		}
		return true
	}
	l.byKey[key] = hash
	return true
}

func (l *hashLedger) stats() (keys, mismatches, resumed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byKey), l.mismatches, l.resumed
}

func (l *hashLedger) hashFor(key string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.byKey[key]
	return h, ok
}

// collector aggregates per-item outcomes across submitter goroutines.
type collector struct {
	mu          sync.Mutex
	accepted    int
	coalesced   int
	cached      int
	rejected    int
	done        int
	failed      int
	suspended   int
	interrupted int
	timedOut    int
	skipped     int
	retries     int

	cancelled        int
	cancelDone       int
	cancelCollateral int
	hangPreempted    int
	deadlineExceeded int
	deadlineRejected int

	suspendedKeys []string

	ledger *hashLedger
}

func newCollector(ledger *hashLedger) *collector {
	if ledger == nil {
		ledger = newHashLedger()
	}
	return &collector{ledger: ledger}
}

func (c *collector) addRetry() {
	c.mu.Lock()
	c.retries++
	c.mu.Unlock()
}

func (c *collector) outcome(o jobqueue.Outcome) {
	c.mu.Lock()
	switch o {
	case jobqueue.OutcomeAccepted:
		c.accepted++
	case jobqueue.OutcomeCoalesced:
		c.coalesced++
	case jobqueue.OutcomeCached:
		c.cached++
	}
	c.mu.Unlock()
}

func (c *collector) terminal(state jobqueue.State, it Item, errMsg string) {
	c.mu.Lock()
	switch state {
	case jobqueue.StateDone:
		c.done++
		if it.Cancel {
			// The planned cancel lost the race to completion — the other
			// legitimate outcome of best-effort cancellation.
			c.cancelDone++
		}
	case jobqueue.StateFailed:
		// A planned hang job failing with the watchdog's message is the
		// expected outcome (stall detection working); anything else
		// failing is a defect.
		if it.Hang && strings.Contains(errMsg, "watchdog") {
			c.hangPreempted++
		} else {
			c.failed++
		}
	case jobqueue.StateCancelled:
		if it.Cancel {
			c.cancelled++
		} else {
			// A coalesced duplicate rode a primary job that another item
			// cancelled: acceptable collateral, reported but not a defect.
			c.cancelCollateral++
		}
	case jobqueue.StateDeadline:
		if it.Deadline > 0 {
			c.deadlineExceeded++
		} else {
			c.cancelCollateral++
		}
	case jobqueue.StateSuspended:
		c.suspended++
		c.suspendedKeys = append(c.suspendedKeys, it.Key)
	}
	c.mu.Unlock()
}

func (c *collector) add(field *int) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// runner executes plan items against one service instance.
type runner struct {
	c   *client.Client
	cfg Config
	col *collector
	// halt, once set, makes submitters skip remaining items — the soak
	// harness sets it when it SIGTERMs the server mid-cycle.
	halt atomic.Bool
	// baseline is the pre-run /healthz snapshot taken when the SLO
	// requests leak checking.
	baseline *api.HealthResponse
}

func newRunner(c *client.Client, cfg Config, ledger *hashLedger) *runner {
	return &runner{c: c, cfg: cfg.withDefaults(), col: newCollector(ledger)}
}

// runPlan executes all items in the configured mode.
func (r *runner) runPlan(ctx context.Context, items []Item) {
	if r.cfg.Mode == ModeOpen {
		r.runOpen(ctx, items)
		return
	}
	r.runClosed(ctx, items)
}

func (r *runner) runClosed(ctx context.Context, items []Item) {
	ch := make(chan Item)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				if r.halt.Load() || ctx.Err() != nil {
					r.col.add(&r.col.skipped)
					continue
				}
				r.do(ctx, it)
			}
		}()
	}
	for _, it := range items {
		ch <- it
	}
	close(ch)
	wg.Wait()
}

func (r *runner) runOpen(ctx context.Context, items []Item) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, it := range items {
		if r.halt.Load() || ctx.Err() != nil {
			r.col.add(&r.col.skipped)
			continue
		}
		if wait := it.Arrival - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
				r.col.add(&r.col.skipped)
				continue
			case <-time.After(wait):
			}
		}
		wg.Add(1)
		go func(it Item) {
			defer wg.Done()
			r.do(ctx, it)
		}(it)
	}
	wg.Wait()
}

// do executes one planned submission end to end: submit (with bounded
// 429 retries), then follow the job to a terminal state over SSE or by
// polling, recording the outcome class and the StateHash.
func (r *runner) do(ctx context.Context, it Item) {
	jctx, cancel := context.WithTimeout(ctx, r.cfg.JobTimeout)
	defer cancel()

	pol := r.cfg.Retry
	inner := pol.OnRetry
	pol.OnRetry = func(attempt int, wait time.Duration) {
		r.col.addRetry()
		if inner != nil {
			inner(attempt, wait)
		}
	}

	resp, err := r.c.SubmitWithRetry(jctx, it.Spec, pol)
	if err != nil {
		var retryable *client.RetryableError
		switch {
		case errors.As(err, &retryable):
			if it.Deadline > 0 && retryable.Code == api.CodeDeadlineInfeasible {
				// Deadline-aware admission fast-rejected the unmeetable
				// budget: an enforcement outcome the plan expects, not a
				// lost submission.
				r.col.add(&r.col.deadlineRejected)
			} else {
				r.col.add(&r.col.rejected)
			}
		case jctx.Err() != nil && ctx.Err() == nil:
			r.col.add(&r.col.timedOut)
		default:
			// Transport failure — during a soak drain this is the
			// expected fate of in-flight submissions.
			r.col.add(&r.col.interrupted)
		}
		return
	}
	r.col.outcome(resp.Outcome)

	if resp.Outcome == jobqueue.OutcomeCached {
		r.col.terminal(jobqueue.StateDone, it, "")
		if res := resp.Job.Result; res != nil {
			r.col.ledger.observe(it.Key, res.StateHash, res.Resumed)
		}
		return
	}

	// Planned cancellation: fire DELETE after the seeded delay, racing
	// the job's own lifecycle on purpose — it may still be queued, be
	// mid-run, or have already completed, and every outcome is asserted.
	if it.Cancel {
		id := resp.Job.ID
		var cancelWG sync.WaitGroup
		cancelWG.Add(1)
		go func() {
			defer cancelWG.Done()
			select {
			case <-jctx.Done():
				return
			case <-time.After(it.CancelAfter):
			}
			_, _ = r.c.Cancel(jctx, id)
		}()
		defer cancelWG.Wait()
	}

	// finish records info when it is terminal and reports whether it was.
	finish := func(info *api.JobInfo) bool {
		if info == nil || !info.State.Terminal() {
			return false
		}
		if info.State == jobqueue.StateDone && info.Result != nil {
			r.col.ledger.observe(it.Key, info.Result.StateHash, info.Result.Resumed)
		}
		r.col.terminal(info.State, it, info.Error)
		return true
	}

	var info *api.JobInfo
	if it.Follow {
		// Follow the SSE stream to its end (the terminal event closes
		// it), then read the authoritative state once. A stream broken by
		// a server drain or restart needs no handling here: the poll below
		// classifies.
		_ = r.c.Events(jctx, resp.Job.ID, func(jobqueue.Event) bool { return true })
		info, _ = r.c.Job(jctx, resp.Job.ID)
	} else {
		// Wait returns an error alongside info for every non-done
		// terminal state; the state switch below is the classifier.
		info, _ = r.c.Wait(jctx, resp.Job.ID)
	}

	switch {
	case finish(info):
	case info != nil && it.Follow:
		// SSE ended but the job is still live (stream broken by a
		// drain); fall back to polling for the remaining budget.
		winfo, _ := r.c.Wait(jctx, resp.Job.ID)
		if finish(winfo) {
			break
		}
		if jctx.Err() != nil && ctx.Err() == nil {
			r.col.add(&r.col.timedOut)
		} else {
			r.col.add(&r.col.interrupted)
		}
	case jctx.Err() != nil && ctx.Err() == nil:
		r.col.add(&r.col.timedOut)
	default:
		r.col.add(&r.col.interrupted)
	}
}

// report assembles the run report from the collected outcomes.
// precached lists content keys already resident in the server's result
// cache before the run started (a soak cycle's recovered jobs): their
// first submission answers "cached" without a planned duplicate, so
// the expected duplicate rate shifts accordingly.
func (r *runner) report(items []Item, wall time.Duration, precached map[string]struct{}) *Report {
	col := r.col
	col.mu.Lock()
	defer col.mu.Unlock()

	planned := planDuplicates(items)
	expected := planned
	if len(precached) > 0 {
		seen := make(map[string]struct{})
		for _, it := range items {
			if _, dup := seen[it.Key]; dup {
				continue
			}
			seen[it.Key] = struct{}{}
			if _, ok := precached[it.Key]; ok {
				expected++
			}
		}
	}

	submitted := col.accepted + col.coalesced + col.cached
	keys, mismatches, _ := col.ledger.stats()
	rep := &Report{
		Seed:            r.cfg.Mix.Seed,
		Mode:            r.cfg.Mode,
		Jobs:            len(items),
		Concurrency:     r.cfg.Concurrency,
		RateHz:          r.cfg.Mix.withDefaults().RateHz,
		KeyMultisetHash: KeyMultisetHash(items),
		DistinctKeys:    distinctKeys(items),

		PlannedDuplicates:   expected,
		PlannedCancels:      planCancels(items),
		PlannedHangJobs:     planHangJobs(items),
		PlannedDeadlineJobs: planDeadlineJobs(items),

		Submitted:     submitted,
		Accepted:      col.accepted,
		Coalesced:     col.coalesced,
		Cached:        col.cached,
		SubmitRetries: col.retries,
		Rejected:      col.rejected,

		Done:           col.done,
		Failed:         col.failed,
		Suspended:      col.suspended,
		Interrupted:    col.interrupted,
		TimedOut:       col.timedOut,
		HashMismatches: mismatches,
		HashedKeys:     keys,

		Cancelled:        col.cancelled,
		CancelRacedDone:  col.cancelDone,
		CancelCollateral: col.cancelCollateral,
		HangPreempted:    col.hangPreempted,
		DeadlineExceeded: col.deadlineExceeded,
		DeadlineRejected: col.deadlineRejected,

		WallSeconds: wall.Seconds(),
	}
	if rep.Jobs > 0 {
		rep.PlannedDuplicateRate = float64(expected) / float64(rep.Jobs)
	}
	if submitted > 0 {
		rep.ObservedDuplicateRate = float64(col.coalesced+col.cached) / float64(submitted)
	}
	return rep
}

// Run executes one full load run against the service at baseURL and
// returns the evaluated report. The plan is synthesized from cfg.Mix,
// so two calls with the same configuration submit the identical
// multiset of content keys.
func Run(ctx context.Context, baseURL string, cfg Config) (*Report, error) {
	items, err := Plan(cfg.Mix)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("loadgen: empty plan")
	}
	r := newRunner(client.New(baseURL), cfg, nil)

	// Probe the server's result cache for the plan's distinct keys
	// before driving load: keys already resident (a prior run, a soak
	// cycle) answer "cached" on first submission without being planned
	// duplicates, so the duplicate-rate assertion must expect them.
	precached := make(map[string]struct{})
	seen := make(map[string]struct{})
	for _, it := range items {
		if _, dup := seen[it.Key]; dup {
			continue
		}
		seen[it.Key] = struct{}{}
		if _, err := r.c.Result(ctx, it.Key); err == nil {
			precached[it.Key] = struct{}{}
		} else if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}

	// Leak checking brackets the run with /healthz snapshots: the
	// baseline before any load, and a settled view after.
	if r.cfg.SLO.CheckLeaks {
		h, herr := r.c.Health(ctx)
		if herr != nil {
			return nil, fmt.Errorf("loadgen: pre-run health snapshot: %w", herr)
		}
		r.baseline = h
	}

	t0 := time.Now()
	r.runPlan(ctx, items)
	rep := r.report(items, time.Since(t0), precached)

	if r.cfg.SLO.CheckLeaks {
		rep.GoroutinesBefore = r.baseline.Goroutines
		if err := r.settle(ctx, rep); err != nil {
			return nil, err
		}
	}
	rep.evaluate(r.cfg.SLO)
	return rep, nil
}

// settle polls /healthz after the plan drained, waiting for the pool to
// go quiescent (no in-flight runs, empty queue) and the goroutine count
// to converge back toward the pre-run baseline. Teardown is
// asynchronous — worker unwind, SSE handler exit, HTTP connection
// close — so the check is a bounded convergence poll, not an instant
// assertion; the last observation is recorded either way and the SLO
// assertions judge it.
func (r *runner) settle(ctx context.Context, rep *Report) error {
	const (
		budget   = 30 * time.Second
		interval = 100 * time.Millisecond
		slack    = 16
	)
	deadline := time.Now().Add(budget)
	for {
		h, err := r.c.Health(ctx)
		if err != nil {
			return fmt.Errorf("loadgen: post-run health snapshot: %w", err)
		}
		rep.FinalInFlight = h.InFlight
		rep.FinalQueueDepth = h.QueueDepth
		rep.GoroutinesAfter = h.Goroutines
		if h.InFlight == 0 && h.QueueDepth == 0 && h.Goroutines <= rep.GoroutinesBefore+slack {
			return nil
		}
		if time.Now().After(deadline) {
			return nil // assertions report the unconverged observation
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
}
