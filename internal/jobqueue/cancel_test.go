package jobqueue

import (
	"context"
	"errors"
	"strings"
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
// preempted by the watchdog's own ticker and, with nothing captured,
// fails. Without a state dir there is no checkpoint to capture; the
// property test covers the stall with one, and the spec's removal.
func TestWatchdogPreemptsHungJob(t *testing.T) {
	t.Run("no-state-dir", func(t *testing.T) {
		pool := New(Config{
			Workers:          1,
			QueueDepth:       4,
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
		// The worker slot was reclaimed: a normal job runs to completion.
		after, _, err := pool.Submit(testSpec(82))
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, after)
	})
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
