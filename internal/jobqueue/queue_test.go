package jobqueue

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peas/internal/durable"
	"peas/internal/experiment"
)

// terminalSum is the sum of the terminal-state counters.
func terminalSum(c map[string]uint64) int {
	var sum uint64
	for _, name := range terminalCounter {
		sum += c[name]
	}
	return int(sum)
}

// identityViolation checks one Stats reading against DESIGN §11's counter
// identities and describes the first that fails ("" when both hold).
// rolledBack is the number of admissions a persist fault rolled back:
// persist_errors also counts checkpoint writes that failed, which roll
// back no admission.
func identityViolation(st Stats, rolledBack uint64) string {
	c := st.Counters
	if c["jobs_submitted"] != c["jobs_coalesced"]+c["cache_hits"]+c["cache_misses"] {
		return fmt.Sprintf("jobs_submitted %d != jobs_coalesced %d + cache_hits %d + cache_misses %d",
			c["jobs_submitted"], c["jobs_coalesced"], c["cache_hits"], c["cache_misses"])
	}
	admitted := uint64(st.QueueDepth + st.InFlight + terminalSum(c))
	if c["cache_misses"]+c["jobs_recovered"] != c["queue_full_rejected"]+c["deadline_rejected"]+rolledBack+admitted {
		return fmt.Sprintf("cache_misses %d + jobs_recovered %d != queue_full_rejected %d + deadline_rejected %d + rolled-back admissions %d + admitted %d (queue depth %d, in flight %d, terminal %d)",
			c["cache_misses"], c["jobs_recovered"], c["queue_full_rejected"], c["deadline_rejected"], rolledBack,
			admitted, st.QueueDepth, st.InFlight, terminalSum(c))
	}
	return ""
}

// TestCancelledQueuedJobsFreeTheirSlots: with the one worker held and the
// queue full, cancelling every queued job empties the queue at once. The
// gauge reads 0, and the next distinct submission is admitted rather than
// turned away as if the cancelled jobs were still ahead of it.
func TestCancelledQueuedJobsFreeTheirSlots(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	pool := New(Config{Workers: 1, QueueDepth: 4, Run: instantRun,
		BeforeRun: func(j *Job) {
			if j.Spec.Network.Seed == 0 { // the first job holds the worker
				close(held)
				<-release
			}
		}})
	pool.Start()
	defer pool.Shutdown(context.Background())
	defer close(release)
	if _, _, err := pool.Submit(testSpec(0)); err != nil {
		t.Fatal(err)
	}
	<-held
	var queued []*Job
	for seed := int64(1); seed <= 4; seed++ {
		j, _, err := pool.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	for _, j := range queued {
		if _, found, requested := pool.Cancel(j.ID); !found || !requested || j.State() != StateCancelled {
			t.Fatalf("Cancel(%s) = found %v requested %v, state %s", j.ID, found, requested, j.State())
		}
	}
	st := pool.Stats()
	if st.QueueDepth != 0 || st.InFlight != 1 || st.Counters["jobs_cancelled"] != 4 {
		t.Fatalf("after four cancels: queue depth %d, in flight %d, jobs_cancelled %d; want 0, 1, 4",
			st.QueueDepth, st.InFlight, st.Counters["jobs_cancelled"])
	}
	if _, outcome, err := pool.Submit(testSpec(5)); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("fifth distinct submission: %v, %v; want accepted", outcome, err)
	}
	if st := pool.Stats(); st.QueueDepth != 1 {
		t.Fatalf("queue depth %d after the fifth submission, want 1", st.QueueDepth)
	}
}

// syncGate is an FS whose appended files hold every Sync until the test
// releases it: a submission stops inside its admission's persist window.
type syncGate struct {
	durable.FS
	syncing, release chan struct{}
}

func (g *syncGate) Append(name string) (durable.File, error) {
	f, err := g.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	durable.File
	g *syncGate
}

func (f gatedFile) Sync() error {
	f.g.syncing <- struct{}{}
	<-f.g.release
	return f.File.Sync()
}

// TestStopDuringAdmissionSync: a job becomes runnable only once its
// admission record is synced. While the sync is held the job is queued
// and counted as such, but on no queue a worker reads, and no worker
// starts it. A cancel that lands then is effective; the job ends
// cancelled when its submission has logged it, its admission retired,
// and it never runs.
func TestStopDuringAdmissionSync(t *testing.T) {
	mem := newMemFS()
	gate := &syncGate{FS: mem, syncing: make(chan struct{}), release: make(chan struct{})}
	var runs atomic.Int64
	var synced atomic.Bool
	early := make(chan string, 2)
	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: "/state", FS: gate,
		BeforeRun: func(j *Job) {
			if !synced.Load() {
				early <- j.ID
			}
		},
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			runs.Add(1)
			return instantRun(rc)
		}})
	if _, err := pool.Recover(); err != nil {
		t.Fatal(err)
	}
	pool.Start()
	defer pool.Shutdown(context.Background())

	for _, stop := range []bool{true, false} {
		synced.Store(false)
		type submitted struct {
			job     *Job
			outcome Outcome
			err     error
		}
		done := make(chan submitted, 1)
		go func() {
			j, o, err := pool.Submit(testSpec(1))
			done <- submitted{j, o, err}
		}()
		<-gate.syncing
		jobs := pool.Jobs()
		job := jobs[len(jobs)-1]
		pool.mu.Lock()
		runnable := slices.Contains(pool.queue, job)
		pool.mu.Unlock()
		if st := pool.Stats(); runnable || st.QueueDepth != 1 || st.InFlight != 0 || job.State() != StateQueued {
			t.Fatalf("during the sync: runnable %v, queue depth %d, in flight %d, job %s; want false, 1, 0, queued",
				runnable, st.QueueDepth, st.InFlight, job.State())
		}
		if stop {
			if _, found, requested := pool.Cancel(job.ID); !found || !requested {
				t.Fatalf("Cancel during the sync = found %v, requested %v", found, requested)
			}
		}
		synced.Store(true)
		gate.release <- struct{}{}
		sub := <-done
		if sub.err != nil || sub.outcome != OutcomeAccepted || sub.job != job {
			t.Fatalf("Submit = %v, %v, %v; want %s accepted", sub.job, sub.outcome, sub.err, job.ID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, _ = job.Wait(ctx)
		cancel()
		select {
		case id := <-early:
			t.Fatalf("a worker took %s before its admission was synced", id)
		default:
		}
		st := pool.Stats()
		if msg := identityViolation(st, 0); msg != "" {
			t.Fatal(msg)
		}
		live, _, _ := liveAdmissions(t, mem, "/state")
		if stop {
			if job.State() != StateCancelled || runs.Load() != 0 || st.QueueDepth != 0 || slices.Contains(live, job.ID) {
				t.Fatalf("stopped in its persist window: job %s, %d runs, queue depth %d, live admissions %v; want cancelled, no run, empty queue, %s retired",
					job.State(), runs.Load(), st.QueueDepth, live, job.ID)
			}
		} else if job.State() != StateDone || runs.Load() != 1 {
			t.Fatalf("job %s after %d runs, want done after 1", job.State(), runs.Load())
		}
	}
}

// TestRecoverOnARunningPool: Recover sets a recovered job's resume
// snapshot before the job joins the queue, so a worker already waiting
// for work resumes it bit-exactly. Under -race an unordered write of the
// snapshot is a reported race.
func TestRecoverOnARunningPool(t *testing.T) {
	srcDir, id, want := buildDrainState(t)
	dir := t.TempDir()
	copyFile(t, filepath.Join(srcDir, logName), filepath.Join(dir, logName))
	copyFile(t, filepath.Join(srcDir, id+".ckpt"), filepath.Join(dir, id+".ckpt"))
	pool := New(Config{Workers: 2, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200})
	pool.Start()
	defer pool.Shutdown(context.Background())
	if n, err := pool.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 job", n, err)
	}
	j, _ := pool.Get(id)
	if res := waitResult(t, j); !res.Resumed || res.StateHash != want {
		t.Fatalf("resumed %v, hash %s; want a resumed run ending in %s", res.Resumed, res.StateHash, want)
	}
}

// TestStatsIdentitiesUnderConcurrency polls Stats while goroutines submit
// (through Submit and SubmitJSON, some with deadline budgets the watchdog
// or admission control enforce), cancel and drain, and requires every
// reading to keep DESIGN §11's identities. Each of four rounds runs a
// fresh pool and drains it halfway through, once both its polls and its
// operations are half done. Under the race detector without -short, as CI
// repeats it, it polls 10^6 times; a plain run polls 10^5 times, which
// keeps tier-1 fast.
func TestStatsIdentitiesUnderConcurrency(t *testing.T) {
	polls, rounds := 100_000, 4
	if raceEnabled && !testing.Short() {
		polls = 1_000_000
	}
	const keys = 48
	specs, bodies := make([]*Spec, keys), make([][]byte, keys)
	for k := range specs {
		specs[k] = testSpec(int64(k))
		if k%3 == 0 {
			specs[k].DeadlineSeconds = 1e-6
		}
		if err := specs[k].Normalize(); err != nil {
			t.Fatal(err)
		}
		var err error
		if bodies[k], err = json.Marshal(specs[k]); err != nil {
			t.Fatal(err)
		}
	}
	// A run polls its supervisor a while, so stops land on running jobs.
	run := func(rc experiment.RunConfig) (*experiment.RunStats, error) {
		for i := 0; i < 20; i++ {
			if rc.Supervisor.Stop.Load() {
				return &experiment.RunStats{Preempted: true}, nil
			}
			runtime.Gosched()
		}
		return &experiment.RunStats{}, nil
	}
	const roundOps = 1000 // at least, whatever the scheduler lets the polls do meanwhile
	violations, total, seen := 0, 0, map[string]bool{}
	for r := 0; r < rounds; r++ {
		pool := New(Config{Workers: 2, QueueDepth: 6, CacheCap: 8, Run: run,
			WatchdogInterval: time.Millisecond})
		pool.Start()
		stop := make(chan struct{})
		var ops atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // one goroutine submits through both doors and cancels, in turn
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keys)
				switch op % 3 {
				case 0:
					_, _, _ = pool.SubmitJSON(bodies[k])
				case 1:
					spec := *specs[k]
					_, _, _ = pool.Submit(&spec)
				default:
					if jobs := pool.Jobs(); len(jobs) > 0 {
						pool.Cancel(jobs[rng.Intn(len(jobs))].ID)
					}
				}
				ops.Add(1)
				runtime.Gosched()
			}
		}()
		drained := make(chan error, 1)
		draining := false
		for i := 0; i < polls/rounds || ops.Load() < roundOps || !draining; i++ {
			if !draining && i >= polls/rounds/2 && ops.Load() >= roundOps/2 {
				draining = true
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				go func() { drained <- pool.Shutdown(ctx) }()
			}
			total++
			if msg := identityViolation(pool.Stats(), 0); msg != "" {
				if violations++; violations <= 3 {
					t.Errorf("poll %d of round %d: %s", i, r, msg)
				}
			}
			runtime.Gosched() // on one CPU too, the other goroutines get their turns
		}
		close(stop)
		wg.Wait()
		<-drained
		for name, n := range pool.Stats().Counters { // counters only grow
			seen[name] = seen[name] || n > 0
		}
	}
	if violations > 0 {
		t.Fatalf("%d of %d Stats readings broke an identity", violations, total)
	}
	for _, name := range []string{"jobs_coalesced", "cache_hits", "queue_full_rejected", "deadline_rejected",
		"jobs_completed", "jobs_cancelled", "jobs_deadline_exceeded"} {
		if !seen[name] {
			t.Errorf("no reading saw %s move", name)
		}
	}
}
