package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
	"peas/internal/experiment"
)

// buildDrainState produces a state dir holding one suspended job — a
// live admission in the log plus a real drain checkpoint, written through
// the production path — and returns the job ID and the StateHash an
// uninterrupted run of the same spec produces.
func buildDrainState(t *testing.T) (dir, id, want string) {
	t.Helper()
	spec := testSpec(71)
	spec.Horizon = 1500
	want = directHash(t, spec)

	dir = t.TempDir()
	release := make(chan struct{})
	started := make(chan struct{})
	pool := New(Config{
		Workers:         1,
		QueueDepth:      4,
		StateDir:        dir,
		CheckpointEvery: 200,
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
	// Drain with the budget already spent; once the stop has latched, let
	// the run begin: its first checkpoint boundary suspends it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- pool.Shutdown(ctx) }()
	for !pool.drainStop.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	if st := j.State(); st != StateSuspended {
		t.Fatalf("job state = %s, want suspended", st)
	}
	return dir, j.ID, want
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// logRec is one ID's state in a replayed log: live or parked, and the
// parked ID a claim consumed.
type logRec struct {
	parked bool
	claims string
}

// replayLog replays the admission log in dir independently of the pool:
// each live or parked ID's record, the highest job sequence any record
// names, and the torn frame the log ends in (nil if none). Damaged bytes
// fail the test.
func replayLog(t *testing.T, fsys durable.FS, dir string) (recs map[string]logRec, top int, torn []byte) {
	t.Helper()
	recs = map[string]logRec{}
	data, err := fsys.ReadFile(filepath.Join(dir, logName))
	if errors.Is(err, fs.ErrNotExist) {
		return recs, 0, nil
	}
	if err != nil {
		t.Fatal(err)
	}
	records, damaged, tail := durable.ReadLog(data)
	if len(damaged) > 0 {
		t.Fatalf("admission log holds %d damaged runs", len(damaged))
	}
	for _, rec := range records {
		var r struct {
			ID, Retired, Claims string
			Parked              bool
		}
		if err := json.Unmarshal(rec, &r); err != nil {
			t.Fatalf("log record %q: %v", rec, err)
		}
		top = max(top, idSequence(r.ID), idSequence(r.Retired))
		if r.Retired != "" {
			delete(recs, r.Retired)
		} else {
			delete(recs, r.Claims)
			recs[r.ID] = logRec{parked: r.Parked, claims: r.Claims}
		}
	}
	return recs, top, tail
}

// liveAdmissions is replayLog's live (unparked) IDs, in ID order.
func liveAdmissions(t *testing.T, fsys durable.FS, dir string) (live []string, top int, torn []byte) {
	t.Helper()
	recs, top, torn := replayLog(t, fsys, dir)
	for id, r := range recs {
		if !r.parked {
			live = append(live, id)
		}
	}
	sort.Strings(live)
	return live, top, torn
}

// recoverInto runs Recover on a fresh, un-started pool over dir on the
// real filesystem and returns the pool plus the recovered count.
func recoverInto(t *testing.T, dir string, depth int) (*Pool, int) {
	t.Helper()
	return recoverOn(t, nil, dir, depth)
}

// recoverOn is recoverInto over fsys (nil = the real filesystem). The
// torn-write sweep calls it thousands of times; not starting workers
// keeps each call cheap.
func recoverOn(t *testing.T, fsys durable.FS, dir string, depth int) (*Pool, int) {
	t.Helper()
	pool := New(Config{Workers: 1, QueueDepth: depth, StateDir: dir, CheckpointEvery: 200, FS: fsys})
	n, err := pool.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return pool, n
}

// TestTornWriteSweep is the recovery acceptance sweep: for a persisted
// spec and checkpoint pair, truncate each file at every byte boundary
// and flip a bit at every byte offset; Recover must never return an
// error, and every boot must account for the job exactly once — either
// recovered (healthy or restartable spec) or quarantined (damaged
// spec), with damaged checkpoints quarantined separately and the job
// restarted from its spec.
//
// The pair is the drain-suspended one of the committed state dir the
// one-file-per-job store wrote (testdata/compat/statedir-v1); the
// admission log's own sweep is TestAdmissionLogSweep. The thousands of
// damaged copies are recovered on a memFS, because what is swept is
// Recover's reading of the bytes, not the disk under them
// (TestTornWriteRecoveredRunsFinish and the other Recover tests keep the
// real rename/fsync path driven).
func TestTornWriteSweep(t *testing.T) {
	srcDir, id := "testdata/compat/statedir-v1", "j-000002"
	specName, ckptName := id+".spec.json", id+".ckpt"
	specData, err := os.ReadFile(filepath.Join(srcDir, specName))
	if err != nil {
		t.Fatal(err)
	}
	ckptData, err := os.ReadFile(filepath.Join(srcDir, ckptName))
	if err != nil {
		t.Fatal(err)
	}

	const dir = "/state"
	runCase := func(t *testing.T, spec, ckpt []byte, specDamaged bool) {
		t.Helper()
		mem := newMemFS()
		mem.dirs[dir] = true
		mem.files[filepath.Join(dir, specName)] = spec
		mem.files[filepath.Join(dir, ckptName)] = ckpt
		pool, n := recoverOn(t, mem, dir, 4)
		quarJobs := pool.Counters().Get("jobs_quarantined")
		quarantined := func(name string) bool {
			_, in := mem.files[filepath.Join(dir, QuarantineDir, name)]
			_, left := mem.files[filepath.Join(dir, name)]
			return in && !left
		}
		if specDamaged {
			if n != 0 || quarJobs != 1 {
				t.Fatalf("damaged spec: recovered=%d quarantined=%d, want 0/1", n, quarJobs)
			}
			if !quarantined(specName) || !quarantined(ckptName) {
				t.Fatalf("damaged spec: pair not moved to quarantine; files: %v", mem.names(dir))
			}
		} else {
			// Spec healthy, checkpoint damaged: the job must still come
			// back (restarting from the spec), the checkpoint set aside.
			if n != 1 || quarJobs != 0 {
				t.Fatalf("damaged ckpt: recovered=%d quarantined=%d, want 1/0", n, quarJobs)
			}
			if got := pool.Counters().Get("checkpoints_quarantined"); got != 1 {
				t.Fatalf("damaged ckpt: checkpoints_quarantined = %d, want 1", got)
			}
			if !quarantined(ckptName) || quarantined(specName) {
				t.Fatalf("damaged ckpt: want only the checkpoint quarantined; files: %v", mem.names(dir))
			}
			j, ok := pool.Get(id)
			if !ok {
				t.Fatal("damaged ckpt: job not tracked after recovery")
			}
			j.mu.Lock()
			resume := j.ckpt != ""
			j.mu.Unlock()
			if resume {
				t.Fatal("damaged ckpt: job names a corrupt checkpoint to resume from")
			}
		}
	}
	flipped := func(data []byte, off int) []byte {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x10
		return mutated
	}

	// Every offset of both files, with and without -short: the whole of
	// each — frame header, codec magic, payload, trailer — is covered.
	t.Run("spec-truncations", func(t *testing.T) {
		for n := range specData {
			runCase(t, specData[:n], ckptData, true)
		}
	})
	t.Run("spec-bitflips", func(t *testing.T) {
		for off := range specData {
			runCase(t, flipped(specData, off), ckptData, true)
		}
	})
	t.Run("ckpt-truncations", func(t *testing.T) {
		for n := range ckptData {
			runCase(t, specData, ckptData[:n], false)
		}
	})
	t.Run("ckpt-bitflips", func(t *testing.T) {
		// The durable frame's CRC catches any flip before the snapshot
		// codec ever parses.
		for off := range ckptData {
			runCase(t, specData, flipped(ckptData, off), false)
		}
	})
}

// TestTornWriteRecoveredRunsFinish closes the loop on the sweep: after
// representative damage, the recovered job actually executes to the
// reference StateHash — a checkpoint loss falls back to a from-scratch
// run with an identical final state (determinism), and the intact pair
// resumes bit-exactly.
func TestTornWriteRecoveredRunsFinish(t *testing.T) {
	srcDir, id, want := buildDrainState(t)
	ckptName := id + ".ckpt"

	cases := []struct {
		name        string
		damageCkpt  bool
		wantResumed bool
	}{
		{"intact-pair-resumes", false, true},
		{"damaged-ckpt-restarts", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyFile(t, filepath.Join(srcDir, logName), filepath.Join(dir, logName))
			copyFile(t, filepath.Join(srcDir, ckptName), filepath.Join(dir, ckptName))
			if tc.damageCkpt {
				data, err := os.ReadFile(filepath.Join(dir, ckptName))
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xFF
				if err := os.WriteFile(filepath.Join(dir, ckptName), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pool, n := recoverInto(t, dir, 4)
			if n != 1 {
				t.Fatalf("recovered %d jobs, want 1", n)
			}
			pool.Start()
			defer pool.Shutdown(context.Background())
			j, _ := pool.Get(id)
			res := waitResult(t, j)
			if res.Resumed != tc.wantResumed {
				t.Errorf("Resumed = %v, want %v", res.Resumed, tc.wantResumed)
			}
			if res.StateHash != want {
				t.Errorf("hash %s, want %s", res.StateHash, want)
			}
		})
	}
}

// TestRecoverSweepsTmpAndOrphans: torn .tmp files are deleted (they
// hold no committed data by protocol) and a checkpoint without a spec
// is quarantined rather than leaked or parsed. The log Recover rewrites
// holds no admission, only the ID high-water mark.
func TestRecoverSweepsTmpAndOrphans(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"j-000003.spec.json.tmp", "j-000004.ckpt.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "j-000005.ckpt"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	pool, n := recoverInto(t, dir, 4)
	if n != 0 {
		t.Fatalf("recovered %d jobs from garbage, want 0", n)
	}
	if got := pool.Counters().Get("tmp_files_swept"); got != 2 {
		t.Errorf("tmp_files_swept = %d, want 2", got)
	}
	if got := pool.Counters().Get("checkpoints_quarantined"); got != 1 {
		t.Errorf("checkpoints_quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "j-000005.ckpt")); err != nil {
		t.Errorf("orphan checkpoint not quarantined: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !ent.IsDir() && ent.Name() != logName {
			t.Errorf("file %s left in state dir after sweep", ent.Name())
		}
	}
	if live, top, _ := liveAdmissions(t, durable.OS{}, dir); len(live) != 0 || top != 5 {
		t.Errorf("rewritten log: live %v, high-water mark %d; want none and 5", live, top)
	}
}

// writeSpecFileRaw persists a spec file exactly as the store would,
// letting tests assemble arbitrary state-dir populations.
func writeSpecFileRaw(t *testing.T, dir, id string, spec *Spec) {
	t.Helper()
	s := *spec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(jobRecord{ID: id, Key: s.Key(), Spec: &s})
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(durable.OS{}, filepath.Join(dir, id+".spec.json"), data); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverQueueOverflowLeftovers: more persisted jobs than queue
// capacity recover up to the cap; the rest stay on disk and come back
// on the NEXT restart once capacity frees up.
func TestRecoverQueueOverflowLeftovers(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 6; i++ {
		writeSpecFileRaw(t, dir, fmt.Sprintf("j-%06d", i), testSpec(int64(80+i)))
	}

	pool1, n := recoverInto(t, dir, 2)
	if n != 2 {
		t.Fatalf("first boot recovered %d jobs with QueueDepth=2, want 2", n)
	}
	pool1.Start()
	for _, id := range []string{"j-000001", "j-000002"} {
		j, ok := pool1.Get(id)
		if !ok {
			t.Fatalf("job %s not recovered on first boot", id)
		}
		waitResult(t, j)
	}
	if err := pool1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The four overflow jobs were untouched: still on disk, recovered by
	// the next boot.
	pool2, n := recoverInto(t, dir, 8)
	if n != 4 {
		t.Fatalf("second boot recovered %d jobs, want the 4 leftovers", n)
	}
	pool2.Start()
	defer pool2.Shutdown(context.Background())
	for i := 3; i <= 6; i++ {
		j, ok := pool2.Get(fmt.Sprintf("j-%06d", i))
		if !ok {
			t.Fatalf("leftover job j-%06d not recovered on second boot", i)
		}
		waitResult(t, j)
	}
}

// TestRecoverLoadsEveryPark: a park takes no queue slot, so Recover makes
// every parked record claimable even once the queue is full. The state
// dir has statedir-v2's shape: two live admissions in the log, and a
// parked spec file and checkpoint whose ID sorts after both. With
// QueueDepth 1 the first admission is queued, the second stays in the log
// for the next boot, and the park is loaded: a resubmission of its spec
// claims it.
func TestRecoverLoadsEveryPark(t *testing.T) {
	const dir = "/state"
	mem := newMemFS()
	p0 := New(Config{StateDir: dir, FS: mem})
	for i, seed := range []int64{91, 92} {
		s := testSpec(seed)
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if err := p0.logRecord(jobRecord{ID: jobID(i + 1), Key: s.Key(), Spec: s}); err != nil {
			t.Fatal(err)
		}
	}
	parked := testSpec(93)
	if err := parked.Normalize(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(jobRecord{ID: "j-000003", Key: parked.Key(), Spec: parked, Parked: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(durable.WriteFile(mem, filepath.Join(dir, "j-000003.spec.json"), data),
		durable.WriteFile(mem, filepath.Join(dir, "j-000003.ckpt"), (&checkpoint.Snapshot{}).EncodeBytes())); err != nil {
		t.Fatal(err)
	}

	pool := New(Config{Workers: 1, QueueDepth: 1, StateDir: dir, FS: mem, Run: instantRun})
	if n, err := pool.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want the one job that fits the queue", n, err)
	}
	if got := pool.Counters().Get("jobs_parked_recovered"); got != 1 {
		t.Fatalf("jobs_parked_recovered = %d, want 1: the park past the full queue was not loaded", got)
	}
	if _, err := mem.ReadFile(filepath.Join(dir, "j-000003.spec.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the parked spec file is still there (%v); its record is in the rewritten log", err)
	}
	pool.Start()
	defer pool.Shutdown(context.Background())
	first, _ := pool.Get("j-000001")
	waitResult(t, first)
	s := *parked
	j, outcome, err := pool.Submit(&s)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("resubmitting the parked spec: %v, %v; want a claim that resumes", outcome, err)
	}
	if res := waitResult(t, j); !res.Resumed {
		t.Fatal("the claim of the parked spec did not resume")
	}
	if live, _, _ := liveAdmissions(t, mem, dir); !slices.Equal(live, []string{"j-000002"}) {
		t.Errorf("live admissions %v, want the job left for the next boot, j-000002", live)
	}
}

// TestPersistFailureRejectsAdmission pins the accepted-means-recoverable
// contract: when the spec cannot be fsync'd (ENOSPC), Submit rolls the
// admission back and rejects with *PersistError; once the disk
// recovers, the same spec submits cleanly (nothing leaked in the
// coalescing index or the queue accounting).
func TestPersistFailureRejectsAdmission(t *testing.T) {
	ffs := durable.NewFaultFS(nil)
	ffs.FailWrites(syscall.ENOSPC)
	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: t.TempDir(), FS: ffs})
	pool.Start()
	defer pool.Shutdown(context.Background())

	spec := testSpec(101)
	_, _, err := pool.Submit(spec)
	var perr *PersistError
	if !errors.As(err, &perr) {
		t.Fatalf("Submit under ENOSPC: err = %v, want *PersistError", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("PersistError should unwrap to ENOSPC, got %v", err)
	}
	stats := pool.Stats()
	if stats.QueueDepth != 0 {
		t.Errorf("queue depth %d after rollback, want 0", stats.QueueDepth)
	}
	if len(pool.Jobs()) != 0 {
		t.Error("rolled-back job still tracked")
	}
	if got := pool.Counters().Get("persist_errors"); got != 1 {
		t.Errorf("persist_errors = %d, want 1", got)
	}

	// Disk recovers: the identical spec must now be accepted as a fresh
	// run, not coalesced onto the failed admission.
	ffs.Reset()
	j, outcome, err := pool.Submit(testSpec(101))
	if err != nil {
		t.Fatalf("resubmission after disk recovery: %v", err)
	}
	if outcome != OutcomeAccepted {
		t.Fatalf("resubmission outcome = %s, want accepted", outcome)
	}
	waitResult(t, j)
}

// panicOn returns an executor that runs every spec except the one with
// the given network seed, which panics instead — a simulation bug, as the
// pool sees one.
func panicOn(seed int64) RunFunc {
	return func(cfg experiment.RunConfig) (*experiment.RunStats, error) {
		if cfg.Network.Seed == seed {
			panic("executor bug")
		}
		return experiment.Run(cfg)
	}
}

// TestWorkerPanicIsolation: a panicking run — submitted, or recovered
// from a spec on disk at boot — lands in failed with the stack in its
// error and its spec removed, and the pool keeps executing subsequent
// jobs on the same worker.
func TestWorkerPanicIsolation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		onDisk int // 1: the panicking spec is on disk at boot, 0: submitted
	}{{"submitted", 0}, {"recovered", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.onDisk == 1 {
				writeSpecFileRaw(t, dir, "j-000001", testSpec(111))
			}
			pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, Run: panicOn(111)})
			if n, err := pool.Recover(); err != nil || n != tc.onDisk {
				t.Fatalf("Recover = %d, %v; want %d jobs", n, err, tc.onDisk)
			}
			pool.Start()
			defer pool.Shutdown(context.Background())

			j, ok := pool.Get("j-000001")
			if tc.onDisk == 0 {
				var err error
				if j, _, err = pool.Submit(testSpec(111)); err != nil {
					t.Fatal(err)
				}
			} else if !ok {
				t.Fatal("recovered job not in the job table")
			}
			if err := waitErr(t, j); !strings.Contains(err.Error(), "executor bug") {
				t.Fatalf("executor panic not surfaced: %v", err)
			}
			if j.State() != StateFailed {
				t.Fatalf("panicking job state = %s, want failed", j.State())
			}
			if jerr := j.Err().Error(); !strings.Contains(jerr, "panicked") || !strings.Contains(jerr, "goroutine") {
				t.Errorf("job error missing panic stack: %q", jerr)
			}
			if got := pool.Counters().Get("jobs_panicked"); got != 1 {
				t.Errorf("jobs_panicked = %d, want 1", got)
			}
			if _, err := os.Stat(filepath.Join(dir, j.ID+".spec.json")); !os.IsNotExist(err) {
				t.Error("failed job's spec file should be removed")
			}
			if live, _, _ := liveAdmissions(t, durable.OS{}, dir); len(live) != 0 {
				t.Errorf("failed job's admission is still live: %v", live)
			}

			// The single worker survived: a normal job still executes.
			j2, _, err := pool.Submit(testSpec(112))
			if err != nil {
				t.Fatal(err)
			}
			waitResult(t, j2)
		})
	}
}

// TestRecoverQuarantinesRetiredSpecs: a state dir written before the
// sweep job kind and the panic/hang spec fields were retired holds spec
// files this version cannot run as written. Each is quarantined, never
// re-run as a plain simulation with the unknown part dropped, and the
// boot goes on to recover the plain spec beside them.
func TestRecoverQuarantinesRetiredSpecs(t *testing.T) {
	dir := t.TempDir()
	for i, extra := range []map[string]any{
		{"kind": "sweep", "sweep": map[string]any{"deployments": []int{160}, "runs": 5}},
		{"hang": true},
		{"panic": true},
		nil, // plain
	} {
		spec := testSpec(int64(130 + i))
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		fields := make(map[string]any)
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		maps.Copy(fields, extra)
		id := fmt.Sprintf("j-%06d", i+1)
		data, err := json.Marshal(map[string]any{"id": id, "key": spec.Key(), "spec": fields})
		if err != nil {
			t.Fatal(err)
		}
		if err := durable.WriteFile(durable.OS{}, filepath.Join(dir, id+".spec.json"), data); err != nil {
			t.Fatal(err)
		}
	}

	pool, n := recoverInto(t, dir, 8)
	if n != 1 {
		t.Fatalf("recovered %d jobs, want only the plain one", n)
	}
	if got := pool.Counters().Get("jobs_quarantined"); got != 3 {
		t.Errorf("jobs_quarantined = %d, want 3", got)
	}
	if _, ok := pool.Get("j-000004"); !ok {
		t.Error("the plain spec was not the one recovered")
	}
	for _, id := range []string{"j-000001", "j-000002", "j-000003"} {
		if _, err := os.Stat(filepath.Join(dir, QuarantineDir, id+".spec.json")); err != nil {
			t.Errorf("%s not quarantined: %v", id, err)
		}
	}
}
