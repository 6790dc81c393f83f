package jobqueue

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"peas/internal/experiment"
)

// waitErr blocks until the job is terminal and returns the error Wait
// reported; it fails the test if the job succeeded instead.
func waitErr(t *testing.T, j *Job) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := j.Wait(ctx)
	if err == nil {
		t.Fatalf("job %s finished successfully; expected a terminal error", j.ID)
	}
	return err
}

func TestKeyExcludesDeadline(t *testing.T) {
	// DeadlineSeconds is a scheduling constraint, not a simulation input:
	// two submissions differing only in deadline mean the same run and
	// must share a content key (coalesce / cache-hit / claim parks).
	plain := testSpec(11)
	bounded := testSpec(11)
	bounded.DeadlineSeconds = 30
	for _, s := range []*Spec{plain, bounded} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if plain.Key() != bounded.Key() {
		t.Error("deadline-differing specs must share a content key")
	}

	// Structurally invalid deadlines are rejected at admission.
	for _, bad := range []float64{-1, -0.001} {
		s := testSpec(11)
		s.DeadlineSeconds = bad
		if err := s.Normalize(); err == nil {
			t.Errorf("deadlineSeconds=%v should fail validation", bad)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	pool := New(Config{
		Workers:    1,
		QueueDepth: 4,
		StateDir:   dir,
		BeforeRun:  func(*Job) { <-gate },
	})
	pool.Start()
	defer pool.Shutdown(context.Background())

	// The blocker occupies the only worker, so the victim stays queued.
	blocker, _, err := pool.Submit(testSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	victim, _, err := pool.Submit(testSpec(22))
	if err != nil {
		t.Fatal(err)
	}

	if _, found, requested := pool.Cancel("j-999999"); found || requested {
		t.Error("cancel of an unknown ID should report found=false")
	}
	j, found, requested := pool.Cancel(victim.ID)
	if !found || !requested {
		t.Fatalf("Cancel(%s) = found %v requested %v, want true true", victim.ID, found, requested)
	}

	// A queued job cancels immediately: no worker involvement needed.
	if st := j.State(); st != StateCancelled {
		t.Fatalf("cancelled queued job state = %s, want cancelled", st)
	}
	if !j.CancelRequested() {
		t.Error("CancelRequested should report true after Cancel")
	}
	select {
	case <-j.Context().Done():
		if cause := context.Cause(j.Context()); !strings.Contains(cause.Error(), "cancelled") {
			t.Errorf("lifecycle context cause = %v, want a cancellation", cause)
		}
	default:
		t.Error("lifecycle context not cancelled at terminal transition")
	}
	if err := waitErr(t, j); !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("Wait error = %v, want a cancellation", err)
	}
	// Its persisted spec is gone and the coalescing slot is free: an
	// identical resubmission is a fresh admission, not a coalesce.
	if _, err := os.Stat(filepath.Join(dir, victim.ID+".spec.json")); !os.IsNotExist(err) {
		t.Error("cancelled queued job's spec file should be removed")
	}
	retry, outcome, err := pool.Submit(testSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeAccepted {
		t.Fatalf("resubmission after cancel = %s, want accepted", outcome)
	}

	// Cancelling a terminal job is a no-op.
	if _, _, requested := pool.Cancel(victim.ID); requested {
		t.Error("cancel of a terminal job should report requested=false")
	}

	close(gate) // release the blocker; the victim's queue slot is skipped
	waitResult(t, blocker)
	waitResult(t, retry)
	if got := pool.Counters().Get("jobs_cancelled"); got != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", got)
	}
}

// TestCancelRunningParksAndResumes is the flagship cancellation
// property: a run cancelled mid-flight parks a resumable checkpoint
// under its content key, and a later submission of the same spec claims
// it and ends in the bit-identical state of an uninterrupted run.
func TestCancelRunningParksAndResumes(t *testing.T) {
	spec := testSpec(51)
	spec.Horizon = 2000
	want := directHash(t, spec)

	dir := t.TempDir()
	var target atomic.Value // job ID to cancel mid-run ("" disarms)
	target.Store("")
	gate := make(chan struct{}, 4)
	// Events each run segment executed, appended by the one worker and
	// read after Wait has ordered the reads behind it.
	var segments []uint64
	var pool *Pool
	pool = New(Config{
		Workers:         1,
		QueueDepth:      4,
		StateDir:        dir,
		CheckpointEvery: 200,
		BeforeRun:       func(*Job) { <-gate },
		// The whole simulation runs in milliseconds of wall time, so a
		// wall-clock controller cannot reliably land a cancel inside it;
		// instead Cancel is issued from a coverage-sample callback once
		// the run passes 600 simulated seconds — the same API call an
		// external client would make, at a deterministic point.
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			orig := rc.OnSample
			rc.OnSample = func(simT float64, working int, cov []float64) {
				if orig != nil {
					orig(simT, working, cov)
				}
				if id, _ := target.Load().(string); id != "" && simT >= 600 {
					pool.Cancel(id)
				}
			}
			stats, err := experiment.Run(rc)
			if stats != nil {
				segments = append(segments, stats.EngineEvents)
			}
			return stats, err
		},
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

	if err := waitErr(t, j1); !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("Wait error = %v, want a cancellation", err)
	}
	if st := j1.State(); st != StateCancelled {
		t.Fatalf("mid-run cancelled job state = %s, want cancelled", st)
	}
	c := pool.Counters()
	if got := c.Get("jobs_parked"); got != 1 {
		t.Fatalf("jobs_parked = %d, want 1", got)
	}
	// The parked pair lives on disk under the cancelled job's ID.
	if _, err := os.Stat(filepath.Join(dir, j1.ID+".ckpt")); err != nil {
		t.Fatalf("parked checkpoint not on disk: %v", err)
	}

	// Resubmission of the identical spec claims the parked snapshot and
	// resumes; determinism makes the splice invisible in the end state.
	target.Store("")
	s2 := *spec
	j2, outcome, err := pool.Submit(&s2)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeAccepted {
		t.Fatalf("resubmission outcome = %s, want accepted", outcome)
	}
	gate <- struct{}{}
	res := waitResult(t, j2)
	if !res.Resumed {
		t.Error("claimed-park run should report Resumed")
	}
	if res.StateHash != want {
		t.Errorf("resumed hash %s != direct hash %s (cancel broke determinism)", res.StateHash, want)
	}
	if got := c.Get("parked_resumed"); got != 1 {
		t.Errorf("parked_resumed = %d, want 1", got)
	}
	// engine_events is what the workers burned: the cancelled segment
	// counts although it completed no job, and the finished job reports
	// only the segment that finished it.
	if len(segments) != 2 || segments[0] == 0 || segments[1] == 0 {
		t.Fatalf("run segments executed %v events, want two non-empty segments", segments)
	}
	if got := c.Get("engine_events"); got != segments[0]+segments[1] {
		t.Errorf("engine_events = %d, want %d+%d from the parked and the resumed segment",
			got, segments[0], segments[1])
	}
	if got := c.Get("jobs_completed"); got != 1 {
		t.Errorf("jobs_completed = %d, want 1", got)
	}
	if res.Events != segments[1] {
		t.Errorf("Result.Events = %d, want the resumed segment's %d", res.Events, segments[1])
	}
	// The claim re-homed the snapshot: the cancelled job's files are gone.
	if _, err := os.Stat(filepath.Join(dir, j1.ID+".spec.json")); !os.IsNotExist(err) {
		t.Error("claimed park should remove the cancelled job's spec file")
	}
}

// TestParkedCheckpointSurvivesRestart proves the crash-durability of a
// park: after a restart, Recover loads the cancelled run's checkpoint
// into the claim index — never the run queue — and a resubmission still
// resumes bit-exactly.
func TestParkedCheckpointSurvivesRestart(t *testing.T) {
	spec := testSpec(61)
	spec.Horizon = 2000
	want := directHash(t, spec)

	dir := t.TempDir()
	var target atomic.Value
	target.Store("")
	gate := make(chan struct{}, 2)
	var pool1 *Pool
	pool1 = New(Config{
		Workers:         1,
		QueueDepth:      4,
		StateDir:        dir,
		CheckpointEvery: 200,
		BeforeRun:       func(*Job) { <-gate },
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			orig := rc.OnSample
			rc.OnSample = func(simT float64, working int, cov []float64) {
				if orig != nil {
					orig(simT, working, cov)
				}
				if id, _ := target.Load().(string); id != "" && simT >= 600 {
					pool1.Cancel(id)
				}
			}
			return experiment.Run(rc)
		},
	})
	pool1.Start()

	s1 := *spec
	j1, _, err := pool1.Submit(&s1)
	if err != nil {
		t.Fatal(err)
	}
	target.Store(j1.ID)
	gate <- struct{}{}
	waitErr(t, j1)
	if st := j1.State(); st != StateCancelled {
		t.Fatalf("job state = %s, want cancelled", st)
	}
	if err := pool1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart. The parked pair must come back as claimable — not as a
	// resurrected runnable job (a cancelled job must stay cancelled).
	pool2 := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200})
	n, err := pool2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Recover re-enqueued %d jobs; parked state must not resurrect", n)
	}
	if got := pool2.Counters().Get("jobs_parked_recovered"); got != 1 {
		t.Fatalf("jobs_parked_recovered = %d, want 1", got)
	}
	pool2.Start()
	defer pool2.Shutdown(context.Background())

	s2 := *spec
	j2, outcome, err := pool2.Submit(&s2)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeAccepted {
		t.Fatalf("post-restart resubmission outcome = %s, want accepted", outcome)
	}
	res := waitResult(t, j2)
	if !res.Resumed {
		t.Error("post-restart claim should report Resumed")
	}
	if res.StateHash != want {
		t.Errorf("post-restart resumed hash %s != direct hash %s", res.StateHash, want)
	}
}

func TestDeadlineExpiresQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	pool := New(Config{
		Workers:          1,
		QueueDepth:       4,
		WatchdogInterval: 5 * time.Millisecond,
		BeforeRun:        func(*Job) { <-gate },
	})
	pool.Start()
	defer pool.Shutdown(context.Background())

	blocker, _, err := pool.Submit(testSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(32)
	spec.DeadlineSeconds = 0.03
	j, _, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The budget expires while the job is still queued behind the
	// blocker; the watchdog kills it without any worker involvement.
	if err := waitErr(t, j); !strings.Contains(err.Error(), "deadline") {
		t.Errorf("Wait error = %v, want a deadline expiry", err)
	}
	if st := j.State(); st != StateDeadline {
		t.Fatalf("expired queued job state = %s, want deadline_exceeded", st)
	}
	close(gate)
	waitResult(t, blocker)
	if got := pool.Counters().Get("jobs_deadline_exceeded"); got != 1 {
		t.Errorf("jobs_deadline_exceeded = %d, want 1", got)
	}
}

// TestDeadlineKillsRunningJob covers the running half of deadline
// enforcement: the watchdog preempts the run mid-flight, the job lands
// in deadline_exceeded with a parked checkpoint, and a deadline-free
// resubmission (same content key — deadlines are not part of it)
// resumes the work bit-exactly.
func TestDeadlineKillsRunningJob(t *testing.T) {
	spec := testSpec(71)
	spec.Horizon = 2000
	want := directHash(t, spec)

	dir := t.TempDir()
	pool := New(Config{
		Workers:          1,
		QueueDepth:       4,
		StateDir:         dir,
		CheckpointEvery:  200,
		WatchdogInterval: 10 * time.Millisecond,
		// Stretch the run's wall time (~2ms per 25-simulated-second
		// sample, 80 samples to the horizon) so a 50ms deadline reliably
		// lands mid-run instead of racing completion.
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			orig := rc.OnSample
			rc.OnSample = func(simT float64, working int, cov []float64) {
				if orig != nil {
					orig(simT, working, cov)
				}
				time.Sleep(2 * time.Millisecond)
			}
			return experiment.Run(rc)
		},
	})
	pool.Start()
	defer pool.Shutdown(context.Background())

	s1 := *spec
	s1.DeadlineSeconds = 0.05
	j1, _, err := pool.Submit(&s1)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, j1); !strings.Contains(err.Error(), "deadline") {
		t.Errorf("Wait error = %v, want a deadline expiry", err)
	}
	if st := j1.State(); st != StateDeadline {
		t.Fatalf("deadline-killed running job state = %s, want deadline_exceeded", st)
	}
	c := pool.Counters()
	if got := c.Get("jobs_deadline_exceeded"); got != 1 {
		t.Errorf("jobs_deadline_exceeded = %d, want 1", got)
	}
	if got := c.Get("jobs_parked"); got != 1 {
		t.Fatalf("jobs_parked = %d, want 1", got)
	}

	s2 := *spec // no deadline this time; same key either way
	j2, outcome, err := pool.Submit(&s2)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeAccepted {
		t.Fatalf("resubmission outcome = %s, want accepted", outcome)
	}
	res := waitResult(t, j2)
	if !res.Resumed {
		t.Error("claimed-park run should report Resumed")
	}
	if res.StateHash != want {
		t.Errorf("resumed hash %s != direct hash %s (deadline kill broke determinism)", res.StateHash, want)
	}
}

// hangOn returns an executor that runs every spec except the one with
// the given network seed. That one wedges: no event progress, so the
// engine's heartbeat never moves, until its supervisor is stopped, and
// then a preemption with nothing captured — a stuck run that still
// reaches the cooperative poll boundary.
func hangOn(seed int64) RunFunc {
	return func(cfg experiment.RunConfig) (*experiment.RunStats, error) {
		if cfg.Network.Seed != seed {
			return experiment.Run(cfg)
		}
		for !cfg.Supervisor.Stop.Load() {
			time.Sleep(time.Millisecond)
		}
		return &experiment.RunStats{Preempted: true}, nil
	}
}

// TestWatchdogPreemptsHungJob: a run that stops making event progress is
// preempted by the watchdog and, with nothing captured, fails — with or
// without a state dir. The simulator is deterministic, so keeping the
// spec for a restart would only replay the stall at every boot.
func TestWatchdogPreemptsHungJob(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
	}{{"no-state-dir", ""}, {"state-dir", t.TempDir()}} {
		t.Run(tc.name, func(t *testing.T) {
			pool := New(Config{
				Workers:          1,
				QueueDepth:       4,
				StateDir:         tc.dir,
				Run:              hangOn(81),
				StallWindow:      40 * time.Millisecond,
				WatchdogInterval: 5 * time.Millisecond,
			})
			pool.Start()
			defer pool.Shutdown(context.Background())

			j, _, err := pool.Submit(testSpec(81))
			if err != nil {
				t.Fatal(err)
			}
			if err := waitErr(t, j); !strings.Contains(err.Error(), "watchdog") {
				t.Errorf("Wait error = %v, want a watchdog preemption", err)
			}
			if st := j.State(); st != StateFailed {
				t.Fatalf("hung job state = %s, want failed", st)
			}
			c := pool.Counters()
			for name, want := range map[string]uint64{
				"watchdog_stalls": 1, "watchdog_preemptions": 1, "jobs_failed": 1, "jobs_suspended": 0,
			} {
				if got := c.Get(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if tc.dir != "" {
				if _, err := os.Stat(filepath.Join(tc.dir, j.ID+".spec.json")); !os.IsNotExist(err) {
					t.Error("a stalled job's spec must not stay on disk to be re-admitted")
				}
				if n, err := New(Config{StateDir: tc.dir}).Recover(); n != 0 || err != nil {
					t.Errorf("Recover after the stall re-admitted %d jobs (err %v), want 0", n, err)
				}
			}
			// The worker slot was reclaimed: a normal job runs to completion.
			after, _, err := pool.Submit(testSpec(82))
			if err != nil {
				t.Fatal(err)
			}
			waitResult(t, after)
		})
	}
}

func TestDeadlineInfeasibleFastReject(t *testing.T) {
	pool := New(Config{Workers: 1, QueueDepth: 8})
	// Deliberately not started: the backlog stays queued so admission
	// sees queued > 0, and the watchdog cannot interfere.
	if _, _, err := pool.Submit(testSpec(41)); err != nil {
		t.Fatal(err)
	}
	// Prime the queue-wait histogram past its minimum sample count with
	// a 10s median: any deadline under that is hopeless.
	for i := 0; i < 8; i++ {
		pool.queueWait.Observe(10.0)
	}

	doomed := testSpec(42)
	doomed.DeadlineSeconds = 2
	_, _, err := pool.Submit(doomed)
	var dl *DeadlineInfeasibleError
	if !errors.As(err, &dl) {
		t.Fatalf("Submit = %v, want *DeadlineInfeasibleError", err)
	}
	if dl.EstimatedWait < 9*time.Second {
		t.Errorf("EstimatedWait = %s, want ~10s from the primed histogram", dl.EstimatedWait)
	}
	if dl.RetryAfter <= 0 {
		t.Error("RetryAfter should carry a positive backoff hint")
	}
	if got := pool.Counters().Get("deadline_rejected"); got != 1 {
		t.Errorf("deadline_rejected = %d, want 1", got)
	}

	// A generous deadline clears the same estimate and is admitted.
	generous := testSpec(43)
	generous.DeadlineSeconds = 60
	if _, outcome, err := pool.Submit(generous); err != nil || outcome != OutcomeAccepted {
		t.Errorf("generous deadline: outcome %s err %v, want accepted", outcome, err)
	}
	// No deadline means no constraint to check.
	if _, outcome, err := pool.Submit(testSpec(44)); err != nil || outcome != OutcomeAccepted {
		t.Errorf("no deadline: outcome %s err %v, want accepted", outcome, err)
	}
}

// TestDeadlineFeasibleWhenIdle pins the cold-start guard: with no
// backlog, any deadline is feasible regardless of the wait history — a
// worker reaches the job next.
func TestDeadlineFeasibleWhenIdle(t *testing.T) {
	pool := New(Config{Workers: 1, QueueDepth: 8})
	for i := 0; i < 8; i++ {
		pool.queueWait.Observe(10.0)
	}
	spec := testSpec(45)
	spec.DeadlineSeconds = 0.5
	if _, outcome, err := pool.Submit(spec); err != nil || outcome != OutcomeAccepted {
		t.Errorf("idle-queue deadline submission: outcome %s err %v, want accepted", outcome, err)
	}
}
