package jobqueue

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"peas/internal/durable"
	"peas/internal/experiment"
)

// TestResumeIsBitExact interrupts a real run in each way a run can be
// interrupted, resumes it, and requires the end state of the uninterrupted
// run. A cancel or a deadline parks the run's checkpoint for a resubmission
// to claim, or, when that write fails, leaves nothing: the resubmission
// runs from scratch, as it does when the claimed file turns out damaged.
// A drain checkpoints the run beside its spec for the
// next boot, or, when that write fails, leaves the spec to restart from.
// The engine's
// work is counted however a segment ended: engine_events summed over every
// boot is the sum of the segments, and the finished job's Result.Events is
// the last one.
func TestResumeIsBitExact(t *testing.T) {
	spec := testSpec(51)
	spec.Horizon = 2000
	want := directHash(t, spec)

	for _, tc := range []struct {
		name string
		// stop ends the first segment once it passes 600 simulated s: a
		// cancel, a deadline expiry, or ("") a drain past its budget.
		stop         CancelCause
		lostWrite    bool // the disk refuses the park's or the drain's checkpoint
		restart      bool // a restart comes between the segments
		persistFault bool // the first claim cannot log its admission and is rolled back
		damaged      bool // the parked checkpoint is damaged on disk before the claim
	}{
		{name: "cancel/claim", stop: CauseCancel},
		{name: "cancel-write-fails/claim", stop: CauseCancel, lostWrite: true},
		{name: "cancel/damaged/claim", stop: CauseCancel, damaged: true},
		{name: "cancel/restart/claim", stop: CauseCancel, restart: true},
		{name: "deadline/claim", stop: CauseDeadline},
		{name: "drain/restart", restart: true},
		{name: "drain-write-fails/restart", lostWrite: true, restart: true},
		{name: "claim-persist-fault/rollback/claim", stop: CauseCancel, persistFault: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := newMemFS()
			fsys := durable.NewFaultFS(mem)
			var (
				pool     *Pool
				current  *Job        // the job on the one worker
				armed    atomic.Bool // the next run to pass 600 simulated s is stopped there
				drained  = make(chan error, 1)
				segments []uint64 // events each run segment executed, over every boot
				events   uint64   // engine_events summed over the boots so far
			)
			stop := func() {
				if tc.lostWrite {
					fsys.FailWrites(syscall.ENOSPC)
				}
				switch tc.stop {
				case CauseCancel:
					pool.Cancel(current.ID)
				case CauseDeadline:
					pool.superviseOnce(time.Now().Add(2 * time.Hour))
				default: // the run checkpoints at its next boundary
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					go func() { drained <- pool.Shutdown(ctx) }()
					for !pool.drainStop.Load() {
						time.Sleep(time.Millisecond)
					}
				}
			}
			boot := func() {
				pool = New(Config{
					Workers: 1, QueueDepth: 4, StateDir: "/state", FS: fsys, CheckpointEvery: 200,
					BeforeRun: func(j *Job) { current = j },
					Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
						sample := rc.OnSample
						rc.OnSample = func(simT float64, working int, cov []float64) {
							sample(simT, working, cov)
							if simT >= 600 && armed.CompareAndSwap(true, false) {
								stop()
							}
						}
						stats, err := experiment.Run(rc)
						if stats != nil {
							segments = append(segments, stats.EngineEvents)
						}
						return stats, err
					},
				})
				if _, err := pool.Recover(); err != nil {
					t.Fatal(err)
				}
				pool.Start()
			}

			boot()
			first := *spec
			if tc.stop == CauseDeadline {
				first.DeadlineSeconds = 3600
			}
			armed.Store(true)
			j1, _, err := pool.Submit(&first)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			j1.Wait(ctx)
			wantState := map[CancelCause]State{CauseCancel: StateCancelled, CauseDeadline: StateDeadline, "": StateSuspended}[tc.stop]
			if st := j1.State(); st != wantState {
				t.Fatalf("interrupted job is %s, want %s", st, wantState)
			}
			if tc.stop == "" {
				if err := <-drained; !errors.Is(err, context.Canceled) {
					t.Fatalf("Shutdown past its budget = %v, want context.Canceled", err)
				}
			}
			fsys.FailWrites(nil)
			lostPark := tc.lostWrite && tc.stop != ""
			if c := pool.Counters(); lostPark && (c.Get("persist_errors") != 1 || c.Get("jobs_parked") != 0) {
				t.Errorf("a park whose checkpoint write failed: persist_errors %d, jobs_parked %d; want 1 and 0",
					c.Get("persist_errors"), c.Get("jobs_parked"))
			}
			if tc.restart {
				pool.Shutdown(context.Background())
				events += pool.Counters().Get("engine_events")
				boot()
			}
			if tc.damaged { // flip a bit in the parked checkpoint, which only the claim's run reads
				name := "/state/" + j1.ID + ".ckpt"
				mem.mu.Lock()
				if data := mem.files[name]; len(data) > 0 {
					data[len(data)/2] ^= 0x10
				} else {
					t.Errorf("no parked checkpoint %s to damage", name)
				}
				mem.mu.Unlock()
			}

			var j2 *Job
			if tc.stop == "" { // recovered under its own ID
				j2, _ = pool.Get(j1.ID)
			} else {
				if tc.persistFault {
					fsys.FailWrites(syscall.ENOSPC)
					s := *spec
					var perr *PersistError
					if _, _, err := pool.Submit(&s); !errors.As(err, &perr) {
						t.Fatalf("claim on a failing disk: %v, want *PersistError", err)
					}
					fsys.FailWrites(nil)
				}
				s := *spec // no deadline: the budget is not part of the key
				if j2, _, err = pool.Submit(&s); err != nil {
					t.Fatal(err)
				}
			}
			if j2 == nil {
				t.Fatalf("job %s was not recovered", j1.ID)
			}
			res := waitResult(t, j2)
			events += pool.Counters().Get("engine_events")
			if lostPark { // the failed park left nothing to claim, on disk or in memory
				recs, _, _ := replayLog(t, mem, "/state")
				if _, ok := recs[j1.ID]; ok || slices.Contains(mem.names("/state"), j1.ID+".ckpt") {
					t.Errorf("the lost park %s is still in the state dir: log records %v, files %v", j1.ID, recs, mem.names("/state"))
				}
			}
			if tc.damaged {
				q := filepath.Join(QuarantineDir, j1.ID+".ckpt")
				if got := pool.Counters().Get("checkpoints_quarantined"); got != 1 || !slices.Contains(mem.names("/state"), q) {
					t.Errorf("checkpoints_quarantined = %d, state dir %v; want 1, and %s", got, mem.names("/state"), q)
				}
			}
			pool.Shutdown(context.Background())
			if wantResumed := !tc.lostWrite && !tc.damaged; res.StateHash != want || res.Resumed != wantResumed {
				t.Errorf("final hash %s (resumed %v), want %s (resumed %v)", res.StateHash, res.Resumed, want, wantResumed)
			}
			if len(segments) != 2 || segments[0] == 0 || segments[1] == 0 {
				t.Fatalf("run segments executed %v events, want two non-empty segments", segments)
			}
			if events != segments[0]+segments[1] || res.Events != segments[1] {
				t.Errorf("engine_events %d and Result.Events %d, want the sum of segments %v and the last one",
					events, res.Events, segments)
			}
		})
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
