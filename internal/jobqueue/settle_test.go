package jobqueue

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"peas/internal/durable"
	"peas/internal/experiment"
)

// terminalCounters are the per-ending counters settle bumps; every
// admitted job lands in exactly one of them.
var terminalCounters = []string{
	"jobs_completed", "jobs_failed", "jobs_suspended", "jobs_cancelled", "jobs_deadline_exceeded",
}

func terminalCounterSum(p *Pool) uint64 {
	var sum uint64
	for _, name := range terminalCounters {
		sum += p.Counters().Get(name)
	}
	return sum
}

// cancelAtSimT wraps experiment.Run so that the job whose ID is stored in
// target is cancelled from its own coverage-sample callback once the run
// passes simulated second at — a deterministic mid-run cancel.
func cancelAtSimT(pool **Pool, target *atomic.Value, at float64) RunFunc {
	return func(rc experiment.RunConfig) (*experiment.RunStats, error) {
		orig := rc.OnSample
		rc.OnSample = func(simT float64, working int, cov []float64) {
			if orig != nil {
				orig(simT, working, cov)
			}
			if id, _ := target.Load().(string); id != "" && simT >= at {
				(*pool).Cancel(id)
			}
		}
		return experiment.Run(rc)
	}
}

// TestPersistFailureRestoresClaimedPark: a resubmission claims a parked
// checkpoint, then its spec write fails. The rollback must put the park
// back (active → parked), so the next resubmission still resumes instead
// of silently restarting from t=0.
func TestPersistFailureRestoresClaimedPark(t *testing.T) {
	spec := testSpec(301)
	spec.Horizon = 2000
	want := directHash(t, spec)

	dir := t.TempDir()
	ffs := durable.NewFaultFS(nil)
	var target atomic.Value
	target.Store("")
	gate := make(chan struct{}, 2) // holds the worker until the cancel target is armed
	var pool *Pool
	pool = New(Config{
		Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200, FS: ffs,
		BeforeRun: func(*Job) { <-gate },
		Run:       cancelAtSimT(&pool, &target, 600),
	})
	pool.Start()
	defer pool.Shutdown(context.Background())

	s1 := *spec
	j1, _, err := pool.Submit(&s1)
	if err != nil {
		t.Fatal(err)
	}
	target.Store(j1.ID)
	gate <- struct{}{}
	waitErr(t, j1)
	if st := j1.State(); st != StateCancelled {
		t.Fatalf("job state = %s, want cancelled", st)
	}
	target.Store("")

	// The disk fills up: the claiming resubmission is rejected...
	ffs.FailWrites(syscall.ENOSPC)
	s2 := *spec
	var perr *PersistError
	if _, _, err := pool.Submit(&s2); !errors.As(err, &perr) {
		t.Fatalf("Submit under ENOSPC: err = %v, want *PersistError", err)
	}
	// ...and the park is back where the claim found it, files included.
	pool.mu.Lock()
	e := pool.keys[j1.Key]
	parkedAgain := e != nil && e.state == keyParked && e.park.id == j1.ID && e.park.snap != nil
	pool.mu.Unlock()
	if !parkedAgain {
		t.Fatal("rolled-back claim did not restore the parked key")
	}
	for _, name := range []string{j1.ID + ".spec.json", j1.ID + ".ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("parked file %s gone after rollback: %v", name, err)
		}
	}
	if got := pool.Stats().QueueDepth; got != 0 {
		t.Errorf("queue depth %d after rollback, want 0", got)
	}

	// Disk recovers: the resubmission claims the restored park.
	ffs.Reset()
	s3 := *spec
	j3, outcome, err := pool.Submit(&s3)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("resubmission after recovery = %s, %v; want accepted", outcome, err)
	}
	gate <- struct{}{}
	res := waitResult(t, j3)
	if !res.Resumed {
		t.Error("resubmission restarted from t=0: the rolled-back claim lost the park")
	}
	if res.StateHash != want {
		t.Errorf("resumed hash %s != direct hash %s", res.StateHash, want)
	}
	if got := pool.Counters().Get("parked_resumed"); got != 1 {
		t.Errorf("parked_resumed = %d, want 1", got)
	}
}

// TestDrainCheckpointPersistFailureSuspends: a drain whose checkpoint
// write fails still leaves the job's spec on disk, so a restart re-runs
// it — the client must be told suspended (like the watchdog arm in the
// same situation), not failed.
func TestDrainCheckpointPersistFailureSuspends(t *testing.T) {
	spec := testSpec(302)
	spec.Horizon = 1500
	want := directHash(t, spec)

	dir := t.TempDir()
	ffs := durable.NewFaultFS(nil)
	release := make(chan struct{})
	started := make(chan struct{})
	pool := New(Config{
		Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200, FS: ffs,
		BeforeRun: func(*Job) {
			close(started)
			<-release
		},
	})
	pool.Start()

	s := *spec
	j, _, err := pool.Submit(&s)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ffs.FailWrites(syscall.ENOSPC) // the spec is down; the checkpoint will not make it

	// Drain with an expired deadline, then let the run begin: its first
	// checkpoint boundary stops it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- pool.Shutdown(ctx) }()
	for !pool.drainStop.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context canceled", err)
	}

	if st := j.State(); st != StateSuspended {
		t.Fatalf("job state = %s, want suspended (its spec is still on disk)", st)
	}
	c := pool.Counters()
	for name, wantN := range map[string]uint64{"jobs_suspended": 1, "persist_errors": 1, "jobs_failed": 0} {
		if got := c.Get(name); got != wantN {
			t.Errorf("%s = %d, want %d", name, got, wantN)
		}
	}
	if got := terminalCounterSum(pool); got != 1 {
		t.Errorf("terminal-state counters sum to %d, want 1 (one admitted job)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID+".spec.json")); err != nil {
		t.Fatalf("suspended job's spec not on disk: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("failed checkpoint write left a file behind (err %v)", err)
	}

	// Restart on a healthy disk: the job restarts from its spec and, by
	// determinism, ends in the uninterrupted run's state.
	pool2 := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200})
	if n, err := pool2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 job", n, err)
	}
	pool2.Start()
	defer pool2.Shutdown(context.Background())
	j2, ok := pool2.Get(j.ID)
	if !ok {
		t.Fatalf("recovered job %s not found", j.ID)
	}
	if res := waitResult(t, j2); res.StateHash != want {
		t.Errorf("restarted hash %s, want %s", res.StateHash, want)
	}
}

// TestRetryAfterMeansOverEveryRun: the Retry-After estimate divides the
// wall time of every executed run by the number of executed runs. (It
// used to divide by completed runs only, so a cancel storm inflated it.)
func TestRetryAfterMeansOverEveryRun(t *testing.T) {
	const (
		cancelled = 3
		depth     = 64
		runWall   = 30 * time.Millisecond
	)
	hold := make(chan struct{})
	var held atomic.Bool
	pool := New(Config{
		Workers: 1, QueueDepth: depth,
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			if held.Load() {
				<-hold
			}
			time.Sleep(runWall)
			return &experiment.RunStats{Preempted: rc.Supervisor.Stop.Load()}, nil
		},
	})
	pool.Start()
	defer pool.Shutdown(context.Background())
	defer close(hold)

	// N runs cancelled while running (the cancel lands during the sleep),
	// then one that completes.
	for i := 0; i < cancelled; i++ {
		j, _, err := pool.Submit(testSpec(int64(400 + i)))
		if err != nil {
			t.Fatal(err)
		}
		for j.State() != StateRunning {
			time.Sleep(time.Millisecond)
		}
		pool.Cancel(j.ID)
		waitErr(t, j)
		if st := j.State(); st != StateCancelled {
			t.Fatalf("job %d state = %s, want cancelled", i, st)
		}
	}
	completed, _, err := pool.Submit(testSpec(410))
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, completed)

	runs := pool.RunDuration()
	if got := runs.Count(); got != cancelled+1 {
		t.Fatalf("run-duration histogram holds %d runs, want %d", got, cancelled+1)
	}
	if got, want := pool.Stats().WallSecondsTotal, runs.Sum(); got != want {
		t.Errorf("WallSecondsTotal = %v, want the run-duration sum %v", got, want)
	}

	// Wedge the worker and fill the queue; the overflow's Retry-After is
	// the backlog per worker times the mean over all N+1 runs.
	held.Store(true)
	wedged, _, err := pool.Submit(testSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	for wedged.State() != StateRunning { // it must leave the queue before the queue can fill
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= depth; i++ {
		if _, _, err := pool.Submit(testSpec(int64(500 + i))); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = pool.Submit(testSpec(999))
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("overflow submit: err = %v, want *QueueFullError", err)
	}
	mean := time.Duration(runs.Sum() / (cancelled + 1) * float64(time.Second))
	if want := (depth + 1) * mean; full.RetryAfter != want {
		t.Errorf("Retry-After = %s, want %s (mean %s over %d runs x backlog %d)",
			full.RetryAfter, want, mean, cancelled+1, depth+1)
	}
	if mean < runWall || (depth+1)*mean <= time.Second {
		t.Fatalf("mean run wall %s too small to clear the 1s Retry-After floor", mean)
	}
}
