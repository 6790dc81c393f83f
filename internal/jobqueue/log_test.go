package jobqueue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
	"peas/internal/experiment"
)

// instantRun is an executor whose runs return at once.
func instantRun(experiment.RunConfig) (*experiment.RunStats, error) {
	return &experiment.RunStats{}, nil
}

// TestAdmissionCostsThreeOps pins what the log costs on a FaultFS: a
// job admitted and finished takes one append and one sync at admission
// and one unsynced append at completion, 3 counted operations (the spec
// file store took 9: a WriteFile's 7 and two unlinks). The constant is 9
// too: Recover's rewrite of the log (MkdirAll, create, write, sync,
// close, rename, directory sync), the reopen for appending, and the
// close at Shutdown.
func TestAdmissionCostsThreeOps(t *testing.T) {
	const n, c = 20, 9
	ffs := durable.NewFaultFS(newMemFS())
	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: "/state", FS: ffs, Run: instantRun})
	if _, err := pool.Recover(); err != nil {
		t.Fatal(err)
	}
	pool.Start()
	for i := 0; i < n; i++ {
		j, _, err := pool.Submit(testSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, j)
	}
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Ops(); got != 3*n+c {
		t.Errorf("%d admitted and finished jobs took %d counted operations, want 3N+%d = %d", n, got, c, 3*n+c)
	}
}

// parkOnStop is an executor whose run waits for its supervisor's stop and
// then obeys it with a checkpoint, as a cancelled run does: the job parks.
func parkOnStop(rc experiment.RunConfig) (*experiment.RunStats, error) {
	for !rc.Supervisor.Stop.Load() {
		time.Sleep(50 * time.Microsecond)
	}
	rc.OnPreempt(&checkpoint.Snapshot{})
	return &experiment.RunStats{Preempted: true}, nil
}

// parkingPool starts a one-worker pool over fsys whose runs park when
// cancelled, and returns it with the channel each run announces its job
// on.
func parkingPool(t *testing.T, fsys durable.FS) (*Pool, chan *Job) {
	t.Helper()
	running := make(chan *Job, 1)
	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: "/state", FS: fsys,
		BeforeRun: func(j *Job) { running <- j }, Run: parkOnStop})
	if _, err := pool.Recover(); err != nil {
		t.Fatal(err)
	}
	pool.Start()
	return pool, running
}

// cancelAndWait cancels a running job and waits for it to end.
func cancelAndWait(t *testing.T, pool *Pool, j *Job) {
	t.Helper()
	pool.Cancel(j.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); err == nil || j.State() != StateCancelled {
		t.Fatalf("job %s is %s after its cancel (%v), want cancelled", j.ID, j.State(), err)
	}
}

// TestParkAndClaimCosts pins what a park and a claim cost on a FaultFS. A
// park writes its checkpoint (WriteFile's 7 counted operations), then
// appends and syncs its parked record: 9. A claim's admission appends and
// syncs its record, which names the park it consumes: 2. The park of a
// job that claimed one also removes the claimed checkpoint, which its own
// replaces: 10. The store that filed a park as a spec file took 15 per
// park (two WriteFiles and the retire record's append) and 11 per claim
// admission (the append and sync, a WriteFile copying the parked
// checkpoint under the new ID, and the removal of the parked spec file
// and checkpoint).
func TestParkAndClaimCosts(t *testing.T) {
	ffs := durable.NewFaultFS(newMemFS())
	pool, running := parkingPool(t, ffs)
	defer pool.Shutdown(context.Background())
	cost := func(op func()) int {
		before := ffs.Ops()
		op()
		return ffs.Ops() - before
	}
	if _, _, err := pool.Submit(testSpec(1)); err != nil {
		t.Fatal(err)
	}
	j := <-running
	if got := cost(func() { cancelAndWait(t, pool, j) }); got != 9 {
		t.Errorf("a park took %d counted operations, want 9", got)
	}
	var claim *Job
	if got := cost(func() {
		var err error
		if claim, _, err = pool.Submit(testSpec(1)); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("a claim's admission took %d counted operations, want 2", got)
	}
	if j := <-running; j != claim || j.ckpt == "" {
		t.Fatalf("the worker ran %s (resuming %v), want the claim %s resuming", j.ID, j.ckpt != "", claim.ID)
	}
	if got := cost(func() { cancelAndWait(t, pool, claim) }); got != 10 {
		t.Errorf("the park of a claim took %d counted operations, want 10", got)
	}
}

// checkpointOnDrain is an executor whose run waits for a drain's
// checkpoint boundary and takes the checkpoint, as a run a drain outlasts
// does: the job is suspended.
func checkpointOnDrain(rc experiment.RunConfig) (*experiment.RunStats, error) {
	for !rc.CheckpointDue() {
		time.Sleep(50 * time.Microsecond)
	}
	rc.OnCheckpoint(&checkpoint.Snapshot{})
	return &experiment.RunStats{}, nil
}

// TestDrainAndRecoverCosts pins what a drain-suspend and a Recover cost
// on a FaultFS. A drain past its budget suspends the running job by
// writing its checkpoint beside its admission (WriteFile's 7 counted
// operations), and the Shutdown then closes the log: 8. The next boot's
// Recover of the N live records, whatever N and although one holds a
// checkpoint, rewrites the log once (7) and reopens it for appending: 8.
// Reads are not counted.
func TestDrainAndRecoverCosts(t *testing.T) {
	for _, n := range []int{1, 4} {
		ffs := durable.NewFaultFS(newMemFS())
		cost := func(op func()) int {
			before := ffs.Ops()
			op()
			return ffs.Ops() - before
		}
		running := make(chan *Job, 1)
		cfg := Config{Workers: 1, QueueDepth: n, StateDir: "/state", FS: ffs,
			BeforeRun: func(j *Job) { running <- j }, Run: checkpointOnDrain}
		pool := New(cfg)
		if _, err := pool.Recover(); err != nil {
			t.Fatal(err)
		}
		pool.Start()
		for i := 0; i < n; i++ {
			if _, _, err := pool.Submit(testSpec(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		j := <-running
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if got := cost(func() { pool.Shutdown(ctx) }); got != 8 {
			t.Errorf("N = %d: a drain that suspends one run took %d counted operations, want 8", n, got)
		}
		if st := j.State(); st != StateSuspended {
			t.Fatalf("N = %d: the drained job is %s, want suspended", n, st)
		}

		pool = New(cfg)
		var recovered int
		if got := cost(func() {
			var err error
			if recovered, err = pool.Recover(); err != nil {
				t.Fatal(err)
			}
		}); got != 8 {
			t.Errorf("N = %d: a Recover of %d live records took %d counted operations, want 8", n, n, got)
		}
		if recovered != n {
			t.Errorf("N = %d: Recover re-enqueued %d jobs, want %d", n, recovered, n)
		}
		pool.Shutdown(context.Background())
	}
}

// TestIDsNeverReissued: a job that finished before a restart keeps its ID
// to itself. The next boot's first admission gets a later ID, and the old
// one is unknown, not someone else's.
func TestIDsNeverReissued(t *testing.T) {
	dir := t.TempDir()
	boot := func() *Pool {
		pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, Run: instantRun})
		if _, err := pool.Recover(); err != nil {
			t.Fatal(err)
		}
		pool.Start()
		return pool
	}
	pool := boot()
	old, _, err := pool.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, old)
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	pool = boot()
	defer pool.Shutdown(context.Background())
	j, _, err := pool.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if idSequence(j.ID) <= idSequence(old.ID) {
		t.Errorf("after a restart the pool admitted %s; %s was issued before it", j.ID, old.ID)
	}
	if _, ok := pool.Get(old.ID); ok {
		t.Errorf("Get(%s) found a job after the restart; want 404", old.ID)
	}
}

// TestPoolWithoutRecoverKeepsEarlierBoot: a pool that admits a job
// without calling Recover issues it an ID past the earlier boot's live
// admission and keeps that admission in the log, so the next boot that
// does recover runs both jobs.
func TestPoolWithoutRecoverKeepsEarlierBoot(t *testing.T) {
	const dir = "/state"
	mem := newMemFS()
	first := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: mem})
	if _, err := first.Recover(); err != nil {
		t.Fatal(err)
	}
	earlier, _, err := first.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// The boot ends without running it: the admission stays live.

	second := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: mem})
	later, _, err := second.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if later.ID == earlier.ID {
		t.Fatalf("the pool that skipped Recover reissued %s", earlier.ID)
	}

	pool, n := recoverOn(t, mem, dir, 4)
	var got []string
	for _, j := range pool.Jobs() {
		got = append(got, j.ID)
	}
	if want := []string{earlier.ID, later.ID}; n != 2 || !slices.Equal(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// unreadableLogFS is a memFS whose admission log cannot be read.
type unreadableLogFS struct{ *memFS }

func (u unreadableLogFS) ReadFile(name string) ([]byte, error) {
	if filepath.Base(name) == logName {
		return nil, syscall.EIO
	}
	return u.memFS.ReadFile(name)
}

// TestUnreadableLogFailsRecover: a log that exists but cannot be read is
// an error for Recover, as an unreadable state dir is, not damage to
// quarantine; admissions are refused meanwhile, and the log is left as it
// was.
func TestUnreadableLogFailsRecover(t *testing.T) {
	const dir = "/state"
	mem := newMemFS()
	p0 := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: mem})
	if _, err := p0.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p0.Submit(testSpec(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	before := slices.Clone(mem.files[path])

	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: unreadableLogFS{mem}})
	if _, err := pool.Recover(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Recover over an unreadable log: %v, want EIO", err)
	}
	var perr *PersistError
	if _, _, err := pool.Submit(testSpec(2)); !errors.As(err, &perr) {
		t.Fatalf("Submit over an unreadable log: %v, want a *PersistError", err)
	}
	if q := pool.Counters().Get("jobs_quarantined"); q != 0 {
		t.Errorf("jobs_quarantined = %d, want 0", q)
	}
	if !bytes.Equal(mem.files[path], before) || len(mem.names(filepath.Join(dir, QuarantineDir))) != 0 {
		t.Errorf("the unreadable log was changed or quarantined")
	}
}

// syncCountFS is a memFS that counts every File.Sync of an appended file.
type syncCountFS struct {
	*memFS
	syncs atomic.Int64
}

type syncCountFile struct {
	durable.File
	fs *syncCountFS
}

func (f *syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (g *syncCountFS) Append(name string) (durable.File, error) {
	f, err := g.memFS.Append(name)
	if err != nil {
		return nil, err
	}
	return &syncCountFile{f, g}, nil
}

// TestConcurrentAdmissions: admissions submitted at once each append
// their record and sync the log before they are acknowledged — one sync
// each — and every one of them is live in the log.
func TestConcurrentAdmissions(t *testing.T) {
	const n = 12
	g := &syncCountFS{memFS: newMemFS()}
	pool := New(Config{Workers: 1, QueueDepth: n, StateDir: "/state", FS: g, Run: instantRun})
	if _, err := pool.Recover(); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var j *Job
			if j, _, errs[i] = pool.Submit(testSpec(int64(i))); errs[i] == nil {
				ids[i] = j.ID
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if got := g.syncs.Load(); got != n {
		t.Errorf("%d concurrent admissions took %d syncs, want one each", n, got)
	}
	live, _, _ := liveAdmissions(t, g, "/state")
	slices.Sort(ids)
	if !slices.Equal(live, ids) {
		t.Errorf("live admissions %v, want %v", live, ids)
	}
	pool.Start()
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionCrashSweep crashes one operation at each of its disk
// operations in turn: a submission on a log that is open, on one a failed
// write closed (so the admission rewrites it first), and one that claims
// a park (its record naming the parked ID); and the park of a cancelled
// run (its checkpoint, then its parked record). After every crash the
// next boot recovers a submitted job exactly once if Submit acknowledged
// it, at most once if not. A claimed or parked job comes back either
// parked once or live once, never both and never neither, and a claim
// that comes back live resumes from the parked checkpoint.
func TestAdmissionCrashSweep(t *testing.T) {
	const dir = "/state"
	spec := testSpec(7)
	for _, scenario := range []string{"open", "closed-by-a-failed-write", "claim", "park"} {
		t.Run(scenario, func(t *testing.T) {
			// setup boots a pool over a fresh disk, brings it to the
			// scenario's state and returns it with its fault layer armed at
			// nothing, and the operation to crash, which reports whether
			// the job was acknowledged.
			setup := func() (*memFS, *durable.FaultFS, *Pool, func() bool) {
				mem := newMemFS()
				if scenario == "claim" {
					p0 := New(Config{StateDir: dir, FS: mem})
					s := *spec
					if err := s.Normalize(); err != nil {
						t.Fatal(err)
					}
					if err := p0.persistPark(&Job{ID: "j-000001", Key: s.Key(), spec: &s}, &checkpoint.Snapshot{}); err != nil {
						t.Fatal(err)
					}
				}
				ffs := durable.NewFaultFS(mem)
				if scenario == "park" {
					pool, running := parkingPool(t, ffs)
					s := *spec
					if _, _, err := pool.Submit(&s); err != nil {
						t.Fatal(err)
					}
					j := <-running
					return mem, ffs, pool, func() bool {
						pool.Cancel(j.ID)
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						defer cancel()
						j.Wait(ctx)
						return false
					}
				}
				pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: ffs, Run: instantRun})
				if _, err := pool.Recover(); err != nil {
					t.Fatal(err)
				}
				if scenario == "closed-by-a-failed-write" {
					ffs.FailWrites(syscall.ENOSPC)
					var perr *PersistError
					if _, _, err := pool.Submit(testSpec(8)); !errors.As(err, &perr) {
						t.Fatalf("submit on a failing disk: %v", err)
					}
					ffs.FailWrites(nil)
				}
				ffs.CrashAt(0)
				return mem, ffs, pool, func() bool {
					s := *spec
					_, _, err := pool.Submit(&s)
					return err == nil
				}
			}
			_, ffs, pool, op := setup()
			ffs.CrashAt(0)
			op()
			total := ffs.Ops()
			pool.Shutdown(context.Background())
			if total < 2 {
				t.Fatalf("the operation took %d disk operations", total)
			}
			s := *spec
			if err := s.Normalize(); err != nil {
				t.Fatal(err)
			}
			key := s.Key()
			for k := 1; k <= total; k++ {
				mem, ffs, pool, op := setup()
				ffs.CrashAt(k)
				acked := op()
				if !ffs.Crashed() {
					t.Fatalf("crash at op %d of %d never fired", k, total)
				}
				pool.Shutdown(context.Background())

				next := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: mem, Run: instantRun})
				if _, err := next.Recover(); err != nil {
					t.Fatalf("crash at op %d: Recover: %v", k, err)
				}
				var recovered []*Job
				for _, j := range next.Jobs() {
					if j.Key == key {
						recovered = append(recovered, j)
					}
				}
				if len(recovered) > 1 || acked && len(recovered) != 1 {
					t.Fatalf("crash at op %d (acknowledged %v): the job was recovered %d times", k, acked, len(recovered))
				}
				if scenario == "claim" || scenario == "park" {
					next.mu.Lock()
					var st keyState
					if e := next.keys[key]; e != nil {
						st = e.state
					}
					next.mu.Unlock()
					switch {
					case len(recovered) == 1 && (st != keyActive || scenario == "claim" && recovered[0].ckpt == ""):
						t.Fatalf("crash at op %d: a recovered job is %v, resuming %v; want active, and resuming after a claim", k, st, recovered[0].ckpt != "")
					case len(recovered) == 0 && st != keyParked:
						t.Fatalf("crash at op %d: an unrecovered job left the key %v, want it parked", k, st)
					}
				}
			}
		})
	}
}

// TestAdmissionLogSweep damages a real admission log at every byte: three
// admissions and the retire record of the first, as a pool writes them.
// Truncated at any byte, the log recovers exactly the records wholly
// before the cut, and a cut inside a frame is a torn tail, dropped and
// counted with the swept temporaries. With a bit flipped anywhere, every
// intact live admission is recovered and the damaged record costs one
// jobs_quarantined — unless it is the last frame, which reads as torn or
// as damage. Recover never fails.
func TestAdmissionLogSweep(t *testing.T) {
	const dir = "/state"
	src := newMemFS()
	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: src})
	if _, err := pool.Recover(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		j, _, err := pool.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	pool.Cancel(ids[0]) // stopped while queued: its admission is retired
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := src.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	records, _, _ := durable.ReadLog(data)
	if len(records) != 4 {
		t.Fatalf("the log holds %d records, want 3 admissions and a retire record", len(records))
	}
	// ends[i] is where frame i ends; admits[i] is the ID record i admits
	// ("" for the retire record).
	ends, admits := make([]int, len(records)), []string{ids[0], ids[1], ids[2], ""}
	for i, rec := range records {
		ends[i] = len(durable.Frame(rec))
		if i > 0 {
			ends[i] += ends[i-1]
		}
	}

	// check recovers mutated and requires the jobs in want to be the ones
	// recovered, and the counters: swept and quarantined, or (either) one
	// of the two. It returns the disk Recover left.
	check := func(t *testing.T, what string, mutated []byte, want []string, swept, quarantined uint64, either bool) *memFS {
		t.Helper()
		mem := newMemFS()
		mem.dirs[dir] = true
		mem.files[filepath.Join(dir, logName)] = mutated
		pool, n := recoverOn(t, mem, dir, 4)
		var got []string
		for _, j := range pool.Jobs() {
			got = append(got, j.ID)
		}
		if n != len(want) || !slices.Equal(got, want) {
			t.Fatalf("%s: recovered %v, want %v", what, got, want)
		}
		s, q := pool.Counters().Get("tmp_files_swept"), pool.Counters().Get("jobs_quarantined")
		if either {
			if s+q != 1 {
				t.Fatalf("%s: swept %d, quarantined %d; want one of the two", what, s, q)
			}
		} else if s != swept || q != quarantined {
			t.Fatalf("%s: swept %d, quarantined %d; want %d, %d", what, s, q, swept, quarantined)
		}
		return mem
	}
	// live replays the admissions and retire records in keep.
	live := func(keep func(i int) bool) []string {
		var out []string
		retiredFirst := keep(3)
		for i, id := range admits[:3] {
			if keep(i) && !(i == 0 && retiredFirst) {
				out = append(out, id)
			}
		}
		return out
	}

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(data); n++ {
			whole := func(i int) bool { return ends[i] <= n }
			torn := uint64(0)
			if !slices.Contains(ends, n) && n > 0 {
				torn = 1
			}
			what := fmt.Sprintf("cut at %d", n)
			mem := check(t, what, data[:n], live(whole), torn, 0, false)
			// A torn tail's bytes are kept in quarantine, uncounted there.
			kept := mem.names(filepath.Join(dir, QuarantineDir))
			if torn == 0 {
				if len(kept) != 0 {
					t.Fatalf("%s: quarantine holds %v, want nothing", what, kept)
				}
				continue
			}
			tail := data[:n]
			for _, end := range ends {
				if end < n {
					tail = data[end:n]
				}
			}
			if name := logBytesName(tail, tornSuffix); !slices.Equal(kept, []string{name}) {
				t.Fatalf("%s: quarantine holds %v, want [%s]", what, kept, name)
			}
			if got, err := durable.ReadFile(mem, filepath.Join(dir, QuarantineDir, logBytesName(tail, tornSuffix))); err != nil || !bytes.Equal(got, tail) {
				t.Fatalf("%s: the kept torn tail reads %q, %v; want %q", what, got, err, tail)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for off := range data {
			mutated := slices.Clone(data)
			mutated[off] ^= 0x10
			hit := 0
			for off >= ends[hit] {
				hit++
			}
			intact := func(i int) bool { return i != hit }
			check(t, fmt.Sprintf("flip at %d (frame %d)", off, hit), mutated, live(intact), 0, 1, hit == len(records)-1)
		}
	})
}
