package jobqueue

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
	"peas/internal/experiment"
)

// memFS is a durable.FS held in memory: files with their contents and
// the directories MkdirAll made. The property test runs thousands of
// admissions and the torn-write sweep thousands of recoveries; neither
// needs a disk, only the state files an OS directory would hold after the
// same calls (TestMemFSMatchesOS holds it to that). Syncs are no-ops:
// nothing here is ever lost.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
	// noRoomForCkpts fails every write to a checkpoint file with ENOSPC,
	// as a disk with room left for a log record but not for a checkpoint.
	noRoomForCkpts bool
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, dirs: map[string]bool{}}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// hasDir reports whether dir exists; the root always does.
func (m *memFS) hasDir(dir string) bool {
	return m.dirs[dir] || dir == filepath.Dir(dir)
}

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.noRoomForCkpts && strings.HasSuffix(f.name, ".ckpt"+durable.TmpSuffix) {
		return 0, syscall.ENOSPC
	}
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

type memEntry struct {
	name string
	dir  bool
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return nil, errors.New("memFS: no file info") }

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.hasDir(d); d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *memFS) Create(name string) (durable.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasDir(filepath.Dir(name)) {
		return nil, notExist("open", name)
	}
	m.files[name] = nil
	return &memFile{m, name}, nil
}

func (m *memFS) Append(name string) (durable.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasDir(filepath.Dir(name)) {
		return nil, notExist("open", name)
	}
	m.files[name] = m.files[name][:len(m.files[name]):len(m.files[name])]
	return &memFile{m, name}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte{}, data...), nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasDir(dir) {
		return nil, notExist("open", dir)
	}
	var out []fs.DirEntry
	for name := range m.files {
		if filepath.Dir(name) == dir {
			out = append(out, memEntry{filepath.Base(name), false})
		}
	}
	for name := range m.dirs {
		if filepath.Dir(name) == dir {
			out = append(out, memEntry{filepath.Base(name), true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok || !m.hasDir(filepath.Dir(newpath)) {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

// names returns the paths of the files under dir, relative to it, sorted.
func (m *memFS) names(dir string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
			out = append(out, rel)
		}
	}
	sort.Strings(out)
	return out
}

// TestMemFSMatchesOS tests the fake before the sweep and the property
// test trust it: the operations the admission log, persistSnapshot,
// persistPark, quarantine and Recover issue — and the ways they fail on a missing file
// or directory — run through memFS and through durable.OS on a temp dir,
// and every result and every directory listing must be the same.
func TestMemFSMatchesOS(t *testing.T) {
	drive := func(fsys durable.FS, dir string) []string {
		var log []string
		class := func(err error) string {
			switch {
			case err == nil:
				return "ok"
			case errors.Is(err, fs.ErrNotExist):
				return "not-exist"
			case errors.Is(err, durable.ErrCorrupt):
				return "corrupt"
			}
			return "error: " + err.Error()
		}
		list := func(sub string) string {
			entries, err := fsys.ReadDir(filepath.Join(dir, sub))
			if err != nil {
				return class(err)
			}
			var names []string
			for _, ent := range entries {
				name := ent.Name()
				if ent.IsDir() {
					name += "/"
				}
				names = append(names, name)
			}
			return "[" + strings.Join(names, " ") + "]"
		}
		step := func(what string, err error) {
			log = append(log, fmt.Sprintf("%s: %s; . = %s, %s = %s", what, class(err), list(""), QuarantineDir, list(QuarantineDir)))
		}
		at := func(name string) string { return filepath.Join(dir, name) }
		read := func(name string) {
			payload, err := durable.ReadFile(fsys, at(name))
			step(fmt.Sprintf("read %s = %q", name, payload), err)
		}

		step("fresh state dir", nil)
		_, err := fsys.Create(at("j-1.spec.json.tmp"))
		step("create in a missing dir", err)
		step("write spec", durable.WriteFile(fsys, at("j-1.spec.json"), []byte("spec")))
		step("write ckpt", durable.WriteFile(fsys, at("j-1.ckpt"), []byte("ckpt")))
		step("rewrite spec", durable.WriteFile(fsys, at("j-1.spec.json"), []byte("parked spec")))
		read("j-1.spec.json")
		read("j-1.ckpt")
		read("j-2.spec.json")

		// A torn write: the temporary exists, holds a prefix, and was
		// never renamed; a torn file in place reads as corrupt.
		f, err := fsys.Create(at("j-2.spec.json.tmp"))
		if err == nil {
			_, err = f.Write(durable.Frame([]byte("torn"))[:10])
			f.Close()
		}
		step("torn tmp", err)
		step("rename tmp into place", fsys.Rename(at("j-2.spec.json.tmp"), at("j-2.spec.json")))
		read("j-2.spec.json")

		q := filepath.Join(QuarantineDir, "j-2.spec.json")
		step("quarantine before mkdir", fsys.Rename(at("j-2.spec.json"), at(q)))
		step("mkdir quarantine", fsys.MkdirAll(at(QuarantineDir)))
		step("mkdir quarantine again", fsys.MkdirAll(at(QuarantineDir)))
		step("quarantine", fsys.Rename(at("j-2.spec.json"), at(q)))
		step("quarantine twice", fsys.Rename(at("j-2.spec.json"), at(q)))
		step("sync dirs", errors.Join(fsys.SyncDir(at(QuarantineDir)), fsys.SyncDir(dir)))
		read(q)

		step("remove spec", fsys.Remove(at("j-1.spec.json")))
		step("remove ckpt", fsys.Remove(at("j-1.ckpt")))
		step("remove ckpt again", fsys.Remove(at("j-1.ckpt")))

		_, err = fsys.Append(at("missing/" + logName))
		step("append in a missing dir", err)
		for _, rec := range []string{"first", "second"} {
			f, err := fsys.Append(at(logName))
			if err == nil {
				_, err = f.Write(durable.Frame([]byte(rec)))
				err = errors.Join(err, f.Sync(), f.Close())
			}
			step("append "+rec, err)
		}
		data, err := fsys.ReadFile(at(logName))
		records, _, _ := durable.ReadLog(data)
		step(fmt.Sprintf("read log = %q", records), err)
		step("rewrite log", durable.WriteFile(fsys, at(logName), []byte("whole")))
		read(logName)
		return log
	}

	want := strings.Join(drive(durable.OS{}, filepath.Join(t.TempDir(), "state")), "\n")
	got := strings.Join(drive(newMemFS(), "/state"), "\n")
	if got != want {
		t.Fatalf("memFS and durable.OS diverge\nmemFS:\n%s\nOS:\n%s", got, want)
	}
	// The script's own sanity: it reached the states it was written for.
	for _, frag := range []string{"not-exist", "corrupt", "[j-1.ckpt j-1.spec.json]", "[j-2.spec.json]", `"parked spec"`, "remove ckpt again: not-exist; . = [quarantine/]",
		"append in a missing dir: not-exist", `read log = ["first" "second"]`, `read admissions.log = "whole"`} {
		if !strings.Contains(want, frag) {
			t.Errorf("script never produced %q:\n%s", frag, want)
		}
	}
}

// The reference model of TestKeyStateMachineProperty.
type modelState int

const (
	mAbsent modelState = iota
	mActive
	mParked
	mCached
)

// modelJob is one incarnation of an accepted job as the model tracks it. A
// restart that recovers the job starts a new incarnation under the same ID.
type modelJob struct {
	job      *Job
	key      int
	deadline bool // carries a DeadlineSeconds budget
	resumed  bool // its run continues from a checkpoint
	// opened and changed are what Watch returned as the job was admitted:
	// a follower's stream from there.
	opened  View
	changed <-chan struct{}
}

// diskRec is what the state dir holds under one job ID: a live admission
// or a parked record in the log, whether a checkpoint lies beside it, and,
// while it has none, the parked ID whose checkpoint its claim consumed
// ("" for none).
type diskRec struct {
	key          int
	deadline     bool
	parked, ckpt bool
	claims       string
}

// verdict is what a held run does when the test releases it.
type verdict int

const (
	vFinish    verdict = iota // completes, whatever stop was asked of it
	vFail                     // returns an error
	vPreempt                  // obeys its supervisor's stop with a checkpoint
	vBare                     // obeys the stop with nothing captured
	vDrain                    // checkpoints at the drain's boundary
	vDrainLost                // the same, while the disk refuses the write
	vParkLost                 // obeys a cancel or deadline with a checkpoint the disk has no room for
)

const (
	propKeys    = 8 // past propWorkers+propDepth+propCap: a full queue leaves a key to claim
	propWorkers = 2
	propDepth   = 3
	propCap     = 2
	propSteps   = 32
	propBudget  = time.Hour        // a deadline-carrying submission's DeadlineSeconds
	propStall   = 10 * time.Minute // the pool's StallWindow
	propDir     = "/state"
)

// terminalCounter is the counter each terminal state bumps; every admitted
// job lands in exactly one of them.
var terminalCounter = map[State]string{
	StateDone: "jobs_completed", StateFailed: "jobs_failed", StateSuspended: "jobs_suspended",
	StateCancelled: "jobs_cancelled", StateDeadline: "jobs_deadline_exceeded",
}

// boot is one process lifetime: a pool over the shared memFS, the fault
// layer in between, and the gates its held runs wait on.
type boot struct {
	pool       *Pool
	ffs        *durable.FaultFS
	gates      [propKeys]chan verdict
	wantResume [propKeys]atomic.Bool
	runsCalled atomic.Int64
}

// bootModel is the model of one boot; each restart starts a fresh one.
type bootModel struct {
	state    [propKeys]modelState
	active   [propKeys]*modelJob
	parkedID [propKeys]string
	queue    []*modelJob // queued jobs in order
	running  []*modelJob
	cached   []int  // cached keys, oldest first
	parked   []int  // parked keys, oldest first
	runs     int64  // runs dispatched
	admitted int    // jobs admitted: accepted submissions and recovered files
	retained []*Job // terminal jobs still in the job table, oldest ending first
	evicted  []*Job // terminal jobs pushed out of it
	counters map[string]uint64
	draining bool // the workers take no more work
	// rolledBack counts the admissions a persist fault rolled back: the
	// persist_errors a submission bumps, not those of a checkpoint write.
	rolledBack uint64
	// digest is, per cached key, which body's digest its entry holds:
	// 1 + the body's index in keyMachine.bodies, 0 for none.
	digest [propKeys]int
}

// keyUniverse is every key's normalized spec, its content key and, per
// key, the JSON of its spec without and with a deadline. Every sequence
// shares one and only reads it.
type keyUniverse struct {
	specs  []*Spec
	keys   []string
	bodies [][2][]byte
}

func newKeyUniverse(t *testing.T) *keyUniverse {
	u := &keyUniverse{}
	for k := 0; k < propKeys; k++ {
		spec := testSpec(int64(k))
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		u.specs = append(u.specs, spec)
		u.keys = append(u.keys, spec.Key())
		var bodies [2][]byte
		for d := range bodies {
			s := *spec
			s.DeadlineSeconds = float64(d) * propBudget.Seconds()
			var err error
			if bodies[d], err = json.Marshal(&s); err != nil {
				t.Fatal(err)
			}
		}
		u.bodies = append(u.bodies, bodies)
	}
	return u
}

// keyMachine drives a pool, boot after boot over one state dir, and the
// model side by side.
type keyMachine struct {
	t    *testing.T
	rng  *rand.Rand
	mem  *memFS
	b    *boot
	pool *Pool // b.pool
	*keyUniverse
	runErr atomic.Value // first inconsistency an injected Run saw

	bootModel
	disk        map[string]diskRec // the state dir by job ID, across boots
	quarantined map[string]bool    // file names under quarantine/
	reached     map[string]uint64  // counters summed over every boot of every sequence
}

func newKeyMachine(t *testing.T, seed int64, u *keyUniverse, reached map[string]uint64) *keyMachine {
	m := &keyMachine{t: t, rng: rand.New(rand.NewSource(seed)), mem: newMemFS(), keyUniverse: u,
		disk: map[string]diskRec{}, quarantined: map[string]bool{}, reached: reached}
	m.restart(nil)
	return m
}

// run is the injected executor: it holds the run on its key's gate until
// the test delivers a verdict. One key has at most one active job, so the
// seed identifies the gate.
func (m *keyMachine) run(b *boot, rc experiment.RunConfig) (*experiment.RunStats, error) {
	k := int(rc.Network.Seed)
	b.runsCalled.Add(1)
	v, alive := <-b.gates[k]
	if !alive { // the boot crashed: nothing this run does reaches the disk
		return &experiment.RunStats{}, nil
	}
	fail := func(msg string) { m.runErr.CompareAndSwap(nil, fmt.Sprintf("key %d: %s", k, msg)) }
	if got, want := rc.Resume != nil, b.wantResume[k].Load(); got != want {
		fail(fmt.Sprintf("run resumed from a checkpoint = %v, model says %v", got, want))
	}
	switch v {
	case vFinish:
		return &experiment.RunStats{}, nil
	case vFail:
		return nil, errors.New("injected run failure")
	case vDrain, vDrainLost:
		if !rc.CheckpointDue() {
			fail("drain verdict delivered but no checkpoint is due")
		}
		rc.OnCheckpoint(&checkpoint.Snapshot{})
		return &experiment.RunStats{}, nil
	}
	if !rc.Supervisor.Stop.Load() {
		fail("stop verdict delivered but the supervisor's stop flag is not set")
	}
	if v == vPreempt || v == vParkLost {
		rc.OnPreempt(&checkpoint.Snapshot{})
	}
	return &experiment.RunStats{Preempted: true}, nil
}

func (m *keyMachine) count(name string) { m.counters[name]++ }

// dispatch mirrors the workers: each free worker takes the head of the
// queue.
func (m *keyMachine) dispatch() {
	for !m.draining && len(m.running) < propWorkers && len(m.queue) > 0 {
		m.running = append(m.running, m.queue[0])
		m.queue = m.queue[1:]
		m.runs++
	}
}

// retire seats a job that just ended among the retained terminal jobs,
// pushing out the oldest past the cap.
func (m *keyMachine) retire(j *Job) {
	m.retained = append(m.retained, j)
	if len(m.retained) > propCap {
		m.evicted = append(m.evicted, m.retained[0])
		m.retained = m.retained[1:]
	}
}

// seat makes k the newest member of a bounded key population and returns
// the key it pushes out, or -1.
func seat(pop *[]int, k int) int {
	*pop = append(*pop, k)
	if len(*pop) <= propCap {
		return -1
	}
	out := (*pop)[0]
	*pop = (*pop)[1:]
	return out
}

// park files key k's checkpoint pair under id; the oldest parked key past
// the cap goes absent and its pair is removed.
func (m *keyMachine) park(k int, id string) {
	m.state[k], m.parkedID[k] = mParked, id
	if out := seat(&m.parked, k); out >= 0 {
		m.state[out] = mAbsent
		delete(m.disk, m.parkedID[out])
		m.count("parked_evicted")
	}
}

// leave moves an ended job's key out of the active state.
func (m *keyMachine) leave(j *modelJob, to modelState) {
	m.retire(j.job)
	k := j.key
	m.state[k], m.active[k] = mAbsent, nil
	switch to {
	case mParked:
		m.park(k, j.job.ID)
	case mCached:
		m.state[k] = mCached
		if out := seat(&m.cached, k); out >= 0 {
			m.state[out], m.digest[out] = mAbsent, 0
			m.count("cache_evictions")
		}
	}
}

// submit submits key k's spec and checks the outcome the key's state calls
// for. It returns the job Submit returned, for a crash to judge. A raw
// submission sends the spec's JSON bytes through SubmitJSON instead, and
// must get the same outcome, job and counters.
func (m *keyMachine) submit(k int, deadline, fault, raw bool) *Job {
	t := m.t
	spec := *m.specs[k]
	body := 0
	if deadline {
		spec.DeadlineSeconds = propBudget.Seconds()
		body = 1
	}
	full := len(m.queue) >= propDepth
	claimable := m.state[k] == mAbsent || m.state[k] == mParked
	if claimable { // no job of this key exists whose run could still read it
		m.b.wantResume[k].Store(m.state[k] == mParked)
	}
	if fault {
		m.b.ffs.FailWrites(syscall.ENOSPC)
		defer m.b.ffs.FailWrites(nil)
	}
	want := spec
	var served *Spec // the spec recorded with the digest, which a hit on it leaves in place
	if raw && m.state[k] == mCached && m.digest[k] == 1+body {
		m.pool.mu.Lock()
		served = m.pool.keys[m.keys[k]].hit.spec
		m.pool.mu.Unlock()
	}
	var job *Job
	var outcome Outcome
	var err error
	if raw {
		job, outcome, err = m.pool.SubmitJSON(m.bodies[k][body])
	} else {
		job, outcome, err = m.pool.Submit(&spec)
	}
	if m.b.ffs.Crashed() {
		return job
	}
	if err == nil && (job.Key != m.keys[k] || outcome != OutcomeCoalesced && job.Summary != want.summary()) {
		t.Fatalf("submit of key %d (raw %v): job key %s, spec summary %+v; want %s, %+v", k, raw, job.Key, job.Summary, m.keys[k], want.summary())
	}
	m.count("jobs_submitted")
	switch {
	case m.state[k] == mCached:
		if err != nil || outcome != OutcomeCached || job.State() != StateDone {
			t.Fatalf("submit of cached key: %v, %v; want cached", outcome, err)
		}
		if v := job.View(); v.QueueWait != 0 || !v.StartedAt.IsZero() {
			t.Fatalf("cache hit %s reports queue wait %s (started at %v); it was born done", job.ID, v.QueueWait, v.StartedAt)
		}
		m.count("cache_hits")
		m.retire(job)
		if raw { // the hit leaves its body's digest on the entry
			if m.digest[k] == 1+body {
				m.pool.mu.Lock()
				hit := m.pool.keys[m.keys[k]].hit.spec
				m.pool.mu.Unlock()
				if hit != served {
					t.Fatalf("key %d: a body with a recorded digest was decoded again", k)
				}
				m.reached["body_hits"]++
			}
			m.digest[k] = 1 + body
		}
	case m.state[k] == mActive:
		if err != nil || outcome != OutcomeCoalesced || job != m.active[k].job {
			t.Fatalf("submit of active key: %v, %v; want coalesced onto %s", outcome, err, m.active[k].job.ID)
		}
		m.count("jobs_coalesced")
	case claimable && full:
		m.count("cache_misses")
		m.count("queue_full_rejected")
		var qf *QueueFullError
		if !errors.As(err, &qf) || qf.RetryAfter < time.Second {
			t.Fatalf("submit into a full queue: %v, %v; want *QueueFullError retrying after 1s or more", outcome, err)
		}
	case fault:
		m.count("cache_misses")
		m.count("persist_errors")
		m.rolledBack++
		var perr *PersistError
		if !errors.As(err, &perr) || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("submit with a failing disk: %v, %v; want *PersistError wrapping ENOSPC", outcome, err)
		}
		if m.state[k] == mParked { // the rolled-back claim re-parks as the newest
			m.parked = append(removeInt(m.parked, k), k)
		}
	default:
		m.count("cache_misses")
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("submit of %v key: %v, %v; want accepted", m.state[k], outcome, err)
		}
		j := &modelJob{job: job, key: k, deadline: deadline, resumed: m.state[k] == mParked}
		j.opened, j.changed = job.Watch()
		rec := diskRec{key: k, deadline: deadline}
		if j.resumed { // the claim's record consumes the parked one, and its checkpoint
			m.count("parked_resumed")
			m.parked = removeInt(m.parked, k)
			delete(m.disk, m.parkedID[k])
			rec.claims = m.parkedID[k]
		}
		m.disk[job.ID] = rec
		m.state[k], m.active[k] = mActive, j
		m.queue = append(m.queue, j)
		m.admitted++
		m.dispatch()
	}
	return job
}

// members names a bounded population's members, oldest first.
func members[T any](q *fifo[T], name func(T) string) []string {
	var out []string
	for el := q.l.Front(); el != nil; el = el.Next() {
		out = append(out, name(el.Value.(T)))
	}
	return out
}

// keyNames maps model key indices to their content keys.
func (m *keyMachine) keyNames(ks []int) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = m.keys[k]
	}
	return out
}

func removeInt(s []int, v int) []int {
	out := s[:0:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// ended checks one incarnation's end and counts it: its terminal state,
// announced by one terminal event of the same name; the cause its
// lifecycle context was cancelled with; and what Wait reports — the
// result, or an error naming text.
func (m *keyMachine) ended(j *modelJob, want State, text string) {
	t, job := m.t, j.job
	if st := job.State(); st != want {
		t.Fatalf("job %s: state %s, want %s", job.ID, st, want)
	}
	terminal := 0
	for _, ev := range follow(t, job, j.opened, j.changed) {
		if st := State(ev.Type); st.Terminal() {
			terminal++
			if st != want {
				t.Fatalf("job %s: terminal event %s, final state %s", job.ID, ev.Type, want)
			}
		}
	}
	if terminal != 1 {
		t.Fatalf("job %s saw %d terminal events, want 1", job.ID, terminal)
	}
	res, err := job.Wait(context.Background())
	if want == StateDone && (res == nil || res.Resumed != j.resumed) {
		t.Fatalf("job %s: result %+v, want one that reports resumed %v", job.ID, res, j.resumed)
	}
	job.mu.Lock()
	live := job.spec != nil || job.ckpt != "" || job.changed != nil || job.super != nil
	job.mu.Unlock()
	if live {
		t.Fatalf("job %s ended %s still holding the state only a live job reads", job.ID, want)
	}
	if (err == nil) != (text == "") || err != nil && !strings.Contains(err.Error(), text) {
		t.Fatalf("job %s: Wait error %v, want one naming %q", job.ID, err, text)
	}
	m.count(terminalCounter[want])
}

// stopQueued checks a job stopped while queued: terminal at once, its whole
// life spent waiting, its files gone, its queue slot free.
func (m *keyMachine) stopQueued(j *modelJob, want State, text string) {
	v := j.job.View()
	if !v.StartedAt.IsZero() || v.QueueWait != v.FinishedAt.Sub(v.EnqueuedAt) {
		m.t.Fatalf("job %s stopped in the queue reports queue wait %s (started at %v), want %s",
			j.job.ID, v.QueueWait, v.StartedAt, v.FinishedAt.Sub(v.EnqueuedAt))
	}
	m.ended(j, want, text)
	delete(m.disk, j.job.ID)
	m.queue = slices.DeleteFunc(m.queue, func(q *modelJob) bool { return q == j })
	m.leave(j, mAbsent)
}

// end releases a held run with a verdict, waits for the pool to settle the
// job and moves the model along: what the job becomes follows from the
// verdict and from the stop its supervisor was given (cause), as in
// classify. It returns once the pool has caught up, so the job has retired
// before the next verdict can end another.
func (m *keyMachine) end(j *modelJob, v verdict, cause CancelCause) {
	m.setNoRoomForCkpts(v == vParkLost)
	m.b.gates[j.key] <- v
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j.job.Wait(ctx)
	m.setNoRoomForCkpts(false)
	if m.b.ffs.Crashed() {
		return
	}
	id, rec := j.job.ID, m.disk[j.job.ID]
	to, want, text := mAbsent, StateFailed, ""
	delete(m.disk, id)
	switch {
	case v == vFinish: // a completed result wins over any stop
		to, want = mCached, StateDone
		m.count("runs_executed")
	case v == vFail:
		text = "injected run failure"
	case v == vBare: // stalled with nothing captured: a restart would replay the stall
		text = "watchdog"
		m.count("watchdog_preemptions")
	case cause == CauseCancel || cause == CauseDeadline:
		want, text = StateCancelled, "cancelled"
		if cause == CauseDeadline {
			want, text = StateDeadline, "deadline"
		}
		if v == vParkLost { // a park whose checkpoint does not land is no park: the key goes absent
			m.count("persist_errors")
			m.reached["parks_lost"]++
			break
		}
		to = mParked
		m.count("jobs_parked")
		rec.parked, rec.ckpt, rec.claims = true, true, ""
		m.disk[id] = rec
	default: // a drain, or a stall that captured: suspended, the admission kept for the next boot
		want, text = StateSuspended, "suspended"
		if cause == CauseWatchdog {
			m.count("watchdog_preemptions")
		}
		if v == vDrainLost {
			m.count("persist_errors")
		} else { // its own checkpoint replaces the one its claim consumed
			rec.ckpt, rec.claims = true, ""
		}
		m.disk[id] = rec
	}
	m.ended(j, want, text)
	m.running = slices.DeleteFunc(m.running, func(r *modelJob) bool { return r == j })
	m.leave(j, to)
	m.dispatch()
	m.settleDown()
}

// setNoRoomForCkpts makes the disk refuse checkpoint writes, or take
// them again.
func (m *keyMachine) setNoRoomForCkpts(on bool) {
	m.mem.mu.Lock()
	m.mem.noRoomForCkpts = on
	m.mem.mu.Unlock()
}

// stopRunning releases a run whose supervisor was told to stop: it
// preempts with a checkpoint, or — stalled — possibly with none, or it
// completes regardless. A cancelled or deadline-killed run's checkpoint
// may find no room on the disk.
func (m *keyMachine) stopRunning(j *modelJob, cause CancelCause) {
	if !j.job.View().CancelRequested {
		m.t.Fatalf("job %s: a %s stop was requested, CancelRequested says none", j.job.ID, cause)
	}
	vs := []verdict{vPreempt, vFinish}
	if cause == CauseWatchdog {
		vs = append(vs, vBare)
	} else { // one stop in five: parks stay common enough to evict one another
		vs = append(vs, vPreempt, vFinish, vParkLost)
	}
	m.end(j, vs[m.rng.Intn(len(vs))], cause)
}

// supervise runs the watchdog's scan now and again after later. Every
// deadline budget has run out once after exceeds it, and a held run, which
// makes no heartbeat, has stalled once after reaches the stall window; the
// deadline is checked first.
func (m *keyMachine) supervise(after time.Duration) {
	now := time.Now()
	m.pool.superviseOnce(now)
	m.pool.superviseOnce(now.Add(after))
	expired := after > propBudget
	for _, j := range slices.Clone(m.queue) {
		if expired && j.deadline {
			m.stopQueued(j, StateDeadline, "deadline")
		}
	}
	for _, j := range slices.Clone(m.running) {
		switch {
		case expired && j.deadline:
			m.stopRunning(j, CauseDeadline)
		case after >= propStall:
			m.count("watchdog_stalls")
			m.stopRunning(j, CauseWatchdog)
		}
	}
}

// drain shuts the pool down with its budget already spent while runs are
// held: each run finds a checkpoint due and takes it, the write lands or
// the disk refuses it, and the job is suspended either way, since its spec
// stays for the next boot. Queued jobs stay queued. The next boot recovers.
func (m *keyMachine) drain() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- m.pool.Shutdown(ctx) }()
	held := len(m.running) > 0
	for held && !m.pool.drainStop.Load() {
		time.Sleep(20 * time.Microsecond)
	}
	m.draining = true
	for len(m.running) > 0 {
		v := vDrain
		if m.rng.Intn(2) == 0 {
			v = vDrainLost
			m.b.ffs.FailWrites(syscall.ENOSPC)
		}
		m.end(m.running[0], v, "")
		m.b.ffs.FailWrites(nil)
	}
	if err := <-done; (held || err != nil) && !errors.Is(err, context.Canceled) {
		m.t.Fatalf("Shutdown past its budget = %v, want context.Canceled", err)
	}
	spec := *m.specs[0]
	if _, _, err := m.pool.Submit(&spec); err != ErrShuttingDown {
		m.t.Fatalf("submit after the drain: %v, want ErrShuttingDown", err)
	}
	for _, j := range m.queue {
		if st := j.job.State(); st != StateQueued {
			m.t.Fatalf("job %s, left queued by the drain, is %s", j.job.ID, st)
		}
	}
	m.restart(nil)
}

// crashStep arms a crash at a random disk operation of a submit or of a
// cancelled run's ending. An operation with fewer completes and is checked
// as usual; otherwise the boot dies at that operation. An ending whose job
// holds a checkpoint, its own or a claimed one, is aimed instead: its run
// completes, and the crash lands on the second operation, the
// checkpoint's removal after the unsynced retire record (one operation
// each on an open log, as TestAdmissionCostsThreeOps counts them), a
// point that orphans the checkpoint.
func (m *keyMachine) crashStep(k int, j *modelJob) {
	touched := map[string]diskRec{} // the IDs whose records the operation may change
	ending := j != nil && m.rng.Intn(2) == 0
	aimed := ending && (m.disk[j.job.ID].ckpt || m.disk[j.job.ID].claims != "")
	if aimed {
		m.b.ffs.CrashAt(2)
	} else {
		m.b.ffs.CrashAt(1 + m.rng.Intn(16))
	}
	var accepted *Job
	if ending {
		touched[j.job.ID] = m.disk[j.job.ID]
		if len(m.parked) == propCap { // a park pushes the oldest pair out
			id := m.parkedID[m.parked[0]]
			touched[id] = m.disk[id]
		}
		m.pool.Cancel(j.job.ID)
		if aimed {
			m.end(j, vFinish, CauseCancel)
		} else {
			m.stopRunning(j, CauseCancel)
		}
	} else {
		touched[m.nextID()] = diskRec{key: k}
		if m.state[k] == mParked {
			touched[m.parkedID[k]] = m.disk[m.parkedID[k]]
		}
		accepted = m.submit(k, false, false, false)
	}
	if !m.b.ffs.Crashed() {
		m.b.ffs.CrashAt(0)
		return
	}
	if accepted != nil { // accepted means recoverable
		if live, _, _ := liveAdmissions(m.t, m.mem, propDir); !slices.Contains(live, accepted.ID) {
			m.t.Fatalf("crash after %s was accepted: its admission is not live in the log %v", accepted.ID, live)
		}
	}
	// SIGKILL: the held runs end in a process nobody hears from again.
	for _, g := range m.b.gates {
		close(g)
	}
	if err := m.pool.Shutdown(context.Background()); err != nil {
		m.t.Fatal(err)
	}
	m.restart(touched)
}

// nextID is the ID the pool gives its next admission.
func (m *keyMachine) nextID() string {
	m.pool.mu.Lock()
	defer m.pool.mu.Unlock()
	return fmt.Sprintf("j-%06d", m.pool.seq+1)
}

// fold adds the boot's counters to the tally of transitions reached.
func (m *keyMachine) fold() {
	for name, n := range m.counters {
		m.reached[name] += n
	}
}

// restart boots a new pool over the state dir the last boot left and
// checks what Recover makes of it against the model's reading of DESIGN
// §11's Recover column. The files of every job the last boot's final
// operation did not touch must be as the model has them — all of them
// after a drain (touched nil). After a crash the touched IDs' files are
// read back from the disk, and each ends up recovered, parked, quarantined
// or swept.
func (m *keyMachine) restart(touched map[string]diskRec) {
	t := m.t
	m.fold()
	m.bootModel = bootModel{counters: map[string]uint64{}}

	found, ckpts := map[string]diskRec{}, map[string]bool{}
	known := func(id string) (rec diskRec, hit bool) {
		rec, ok := m.disk[id]
		if tr, hit := touched[id]; hit {
			return tr, true
		}
		if !ok {
			t.Fatalf("state dir holds %s, which no job the model knows of wrote", id)
		}
		return rec, false
	}
	// The log's live and parked records; only the interrupted operation
	// can have torn its last frame, whose bytes Recover keeps in
	// quarantine.
	recs, maxSeq, torn := replayLog(t, m.mem, propDir)
	if torn != nil {
		if touched == nil {
			t.Fatal("the admission log ends in a torn frame, and no operation was interrupted")
		}
		m.count("tmp_files_swept")
		m.quarantined[logBytesName(torn, tornSuffix)] = true
	}
	for id, r := range recs {
		rec, _ := known(id)
		rec.parked, rec.ckpt, rec.claims = r.parked, false, r.claims
		found[id] = rec
	}
	entries, _ := m.mem.ReadDir(propDir)
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || name == logName {
			continue
		}
		if name == logName+durable.TmpSuffix { // a torn rewrite of the log
			if touched == nil {
				t.Fatalf("state dir holds %s, and no operation was interrupted", name)
			}
			m.count("tmp_files_swept")
			continue
		}
		base := strings.TrimSuffix(name, durable.TmpSuffix)
		id, ok := strings.CutSuffix(base, ".ckpt")
		switch {
		case !ok:
			t.Fatalf("state dir holds %s; the store writes only the log and checkpoints", name)
		case base != name: // a torn write, which only the interrupted operation leaves
			if _, hit := known(id); !hit {
				t.Fatalf("state dir holds %s, which the crashed operation did not write", name)
			}
			m.count("tmp_files_swept")
			continue
		}
		ckpts[id] = true
		maxSeq = max(maxSeq, idSequence(id))
	}
	// A record names its own checkpoint or, while it has none, the one its
	// claim consumed; a checkpoint no record names is swept.
	named := map[string]bool{}
	for id, rec := range found {
		rec.ckpt = ckpts[id]
		if rec.ckpt || !ckpts[rec.claims] {
			rec.claims = ""
		}
		if rec.parked && !rec.ckpt {
			t.Fatalf("%s: a parked record without its checkpoint, which is written first", id)
		}
		if rec.ckpt {
			named[id] = true
		}
		if rec.claims != "" {
			named[rec.claims] = true
		}
		found[id] = rec
	}
	for id := range ckpts {
		if !named[id] { // a crash between a record's retirement and its checkpoint's removal
			if touched == nil {
				t.Fatalf("%s.ckpt is named by no record, and no operation was interrupted", id)
			}
			m.count("checkpoints_quarantined")
			m.quarantined[id+".ckpt"] = true
		}
	}
	for id, rec := range m.disk {
		if _, hit := touched[id]; !hit && found[id] != rec {
			t.Fatalf("%s: the state dir holds %+v, the model %+v", id, found[id], rec)
		}
	}
	m.disk = found

	b := &boot{ffs: durable.NewFaultFS(m.mem)}
	for k := range b.gates {
		b.gates[k] = make(chan verdict, 1)
	}
	b.pool = New(Config{
		Workers: propWorkers, QueueDepth: propDepth, CacheCap: propCap,
		StateDir: propDir, FS: b.ffs, StallWindow: propStall,
		WatchdogInterval: time.Hour, // deadlines and stalls fire only when the test scans
		Run:              func(rc experiment.RunConfig) (*experiment.RunStats, error) { return m.run(b, rc) },
	})
	m.b, m.pool = b, b.pool
	n, err := m.pool.Recover()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(m.disk))
	for id := range m.disk {
		ids = append(ids, id)
	}
	sort.Strings(ids) // admission order
	for _, id := range ids {
		rec := m.disk[id]
		k := rec.key
		switch {
		case m.state[k] != mAbsent && (rec.parked || m.state[k] != mParked):
			delete(m.disk, id) // a later record of a key already recovered
			if !rec.parked {
				m.count("jobs_recovered_dup")
			}
		case rec.parked:
			m.count("jobs_parked_recovered")
			m.park(k, id)
		case m.state[k] == mParked:
			// Every parked record was loaded at the boot that admitted this
			// one, so its admission claimed the park in its record.
			t.Fatalf("%s: a live record of key %d, parked as %s, that claimed nothing", id, k, m.parkedID[k])
		case len(m.queue) >= propDepth: // it waits in the log for the next boot; a park still loads
			m.reached["recover_left_on_disk"]++
		default:
			j := &modelJob{key: k, deadline: rec.deadline, resumed: rec.ckpt || rec.claims != ""}
			var ok bool
			if j.job, ok = m.pool.Get(id); !ok {
				t.Fatalf("Recover did not admit %s", id)
			}
			j.opened, j.changed = j.job.Watch()
			m.b.wantResume[k].Store(j.resumed)
			m.state[k], m.active[k] = mActive, j
			m.queue = append(m.queue, j)
			m.count("jobs_recovered")
			m.admitted++
		}
	}
	if n != len(m.queue) || m.pool.seq != maxSeq {
		t.Fatalf("Recover admitted %d jobs and left the ID sequence at %d; want %d, and the state dir's highest ID %d",
			n, m.pool.seq, len(m.queue), maxSeq)
	}
	m.pool.Start()
	m.dispatch()
}

// step applies one random operation to the pool and the model.
func (m *keyMachine) step() {
	pick := func(js []*modelJob) *modelJob {
		if len(js) == 0 {
			return nil
		}
		return js[m.rng.Intn(len(js))]
	}
	k := m.rng.Intn(propKeys)
	switch op := m.rng.Intn(15); op {
	case 0, 1, 2: // submit, sometimes with a deadline budget, now and then until the queue is full
		if m.rng.Intn(32) == 0 {
			m.fill()
		} else {
			m.submit(k, m.rng.Intn(3) == 0, false, false)
		}
	case 3: // duplicate submit of an active key
		if j := pick(slices.Concat(m.queue, m.running)); j != nil {
			k = j.key
		}
		m.submit(k, false, false, false)
	case 4: // persist fault
		m.submit(k, false, true, false)
	case 5: // cancel queued; cancelling an unknown ID or a terminal job does nothing
		if _, found, _ := m.pool.Cancel("j-999999"); found {
			m.t.Fatal("Cancel of an unknown ID found a job")
		}
		if j := pick(m.queue); j != nil {
			if _, found, requested := m.pool.Cancel(j.job.ID); !found || !requested {
				m.t.Fatalf("Cancel(%s) = found %v requested %v", j.job.ID, found, requested)
			}
			m.stopQueued(j, StateCancelled, "cancelled")
		} else if len(m.retained) > 0 {
			old := m.retained[m.rng.Intn(len(m.retained))]
			st := old.State()
			if _, found, requested := m.pool.Cancel(old.ID); !found || requested || old.State() != st {
				m.t.Fatalf("Cancel of terminal job %s = found %v requested %v, state %s -> %s", old.ID, found, requested, st, old.State())
			}
		}
	case 6: // cancel running: the run parks its checkpoint, or completes first
		if j := pick(m.running); j != nil {
			if _, found, requested := m.pool.Cancel(j.job.ID); !found || !requested {
				m.t.Fatalf("Cancel(%s) = found %v requested %v", j.job.ID, found, requested)
			}
			m.stopRunning(j, CauseCancel)
		}
	case 7: // let finish
		if j := pick(m.running); j != nil {
			m.end(j, vFinish, "")
		}
	case 8: // let fail
		if j := pick(m.running); j != nil {
			m.end(j, vFail, "")
		}
	case 9: // every deadline budget runs out; every other run has stalled by then
		m.supervise(2 * propBudget)
	case 10: // every run stalls
		m.supervise(propStall)
	case 11: // drain, then restart
		m.drain()
	case 12: // crash, then restart
		m.crashStep(k, pick(m.running))
	case 13, 14: // submit a spec's bytes, often a cached key's, sometimes with a deadline
		if len(m.cached) > 0 && m.rng.Intn(2) == 0 {
			k = m.cached[m.rng.Intn(len(m.cached))]
		}
		m.submit(k, m.rng.Intn(3) == 0, false, true)
	}
}

// fill submits keys no job holds, one by one, until the full queue turns
// one away. Random submits of random keys coalesce or hit the cache as
// often as they claim, and runs end about as often as they start, so the
// queue seldom fills by chance.
func (m *keyMachine) fill() {
	for {
		var free []int
		for k, st := range m.state {
			if st == mAbsent || st == mParked {
				free = append(free, k)
			}
		}
		if len(free) == 0 {
			return
		}
		full := len(m.queue) >= propDepth
		m.submit(free[m.rng.Intn(len(free))], m.rng.Intn(3) == 0, false, false)
		if full {
			return
		}
		m.settleDown()
	}
}

// settleDown waits until the workers have caught up with the model: the
// queue drained to the model's slots, every dispatched run inside Run.
func (m *keyMachine) settleDown() {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.pool.Stats()
		ok := st.QueueDepth == len(m.queue) && st.InFlight == len(m.running) && m.b.runsCalled.Load() == m.runs
		for _, j := range m.running {
			ok = ok && j.job.State() == StateRunning
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("pool never reached the model's state: queue %d/%d in-flight %d/%d runs %d/%d",
				st.QueueDepth, len(m.queue), st.InFlight, len(m.running), m.b.runsCalled.Load(), m.runs)
		}
		runtime.Gosched()
	}
}

// check compares the pool with the model after a step.
func (m *keyMachine) check() {
	t := m.t
	if msg := m.runErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	p := m.pool

	// Each key is in exactly one state, the model's.
	p.mu.Lock()
	known, digests := 0, 0
	for k, key := range m.keys {
		e := p.keys[key]
		var ok bool
		switch m.state[k] {
		case mAbsent:
			ok = e == nil
		case mActive:
			ok = e != nil && e.state == keyActive && e.job == m.active[k].job && e.res == nil && e.park == "" && e.elem == nil
		case mParked:
			ok = e != nil && e.state == keyParked && e.job == nil && e.res == nil && e.park == m.parkedID[k]
		case mCached:
			ok = e != nil && e.state == keyCached && e.job == nil && e.res != nil && e.park == ""
		}
		if !ok {
			p.mu.Unlock()
			t.Fatalf("key %d: table entry %+v does not match model state %d", k, e, m.state[k])
		}
		if e != nil {
			known++
		}
		// A digest lives on a cached entry only, and only after a raw hit:
		// the last body that hit it, indexed under its SHA-256.
		if d := m.digest[k]; d != 0 {
			sum := sha256.Sum256(m.bodies[k][d-1])
			ok = e.hit != nil && e.hit.sum == sum && p.bodies[sum] == e &&
				e.hit.spec.DeadlineSeconds == float64(d-1)*propBudget.Seconds()
			digests++
		} else {
			ok = e == nil || e.hit == nil
		}
		if !ok {
			p.mu.Unlock()
			t.Fatalf("key %d: entry holds body digest %+v, model says body %d", k, e.hit, m.digest[k])
		}
	}
	if len(p.bodies) != digests {
		p.mu.Unlock()
		t.Fatalf("body index holds %d digests, model %d", len(p.bodies), digests)
	}
	tableSize := len(p.keys)
	var parkIDs []string
	for _, e := range p.keys {
		if e.state == keyParked {
			parkIDs = append(parkIDs, e.park)
		}
	}
	// The bounded populations hold the model's members, oldest first.
	keyOf := func(e *entry) string { return e.key }
	gotCached, gotParked := members(&p.cachedKeys, keyOf), members(&p.parkedKeys, keyOf)
	gotRetained := members(&p.finished, func(j *Job) string { return j.ID })
	// No key points at a job that has left the job table.
	for _, e := range p.keys {
		if e.job != nil && p.jobs[e.job.ID] != e.job {
			p.mu.Unlock()
			t.Fatalf("key table entry %+v points at job %s, which the job table does not hold", e, e.job.ID)
		}
	}
	p.mu.Unlock()
	if tableSize != known {
		t.Fatalf("key table holds %d entries, model knows %d", tableSize, known)
	}
	for _, pop := range []struct {
		name      string
		got, want []string
	}{
		{"cached", gotCached, m.keyNames(m.cached)},
		{"parked", gotParked, m.keyNames(m.parked)},
		{"retained terminal jobs", gotRetained, jobIDs(m.retained)},
	} {
		if len(pop.got) > propCap || strings.Join(pop.got, ",") != strings.Join(pop.want, ",") {
			t.Fatalf("%s population (oldest first) = %v, want %v", pop.name, pop.got, pop.want)
		}
	}

	// The job table lists, in admission order, the retained terminal jobs
	// and the live queued and running ones; no evicted ID is found.
	live := slices.Concat(m.queue, m.running)
	wantListed := jobIDs(m.retained)
	for _, j := range live {
		wantListed = append(wantListed, j.job.ID)
	}
	sort.Strings(wantListed)
	listed := jobIDs(p.Jobs())
	if len(listed) > propCap+len(live) || !sort.StringsAreSorted(listed) ||
		strings.Join(listed, ",") != strings.Join(wantListed, ",") {
		t.Fatalf("Jobs() = %v, want %v in admission order", listed, wantListed)
	}
	for _, j := range m.evicted {
		if _, ok := p.Get(j.ID); ok {
			t.Fatalf("evicted job %s is still found by Get", j.ID)
		}
	}

	// Gauges: the queued jobs and the busy workers, which with the
	// counters keep DESIGN §11's identities.
	st := p.Stats()
	if st.QueueDepth != len(m.queue) || st.InFlight != len(m.running) {
		t.Fatalf("queue depth %d, in-flight %d; model %d, %d", st.QueueDepth, st.InFlight, len(m.queue), len(m.running))
	}
	if msg := identityViolation(st, m.rolledBack); msg != "" {
		t.Fatal(msg)
	}
	if got := st.QueueDepth + st.InFlight + terminalSum(st.Counters); got != m.admitted {
		t.Fatalf("queue depth + in-flight + terminal counters = %d, model admitted %d", got, m.admitted)
	}
	if st.CacheEntries != len(m.cached) {
		t.Fatalf("CacheEntries = %d, model has %d", st.CacheEntries, len(m.cached))
	}
	// Every counter the pool keeps, the terminal-state ones among them, has
	// the model's value.
	counters := st.Counters
	maps.DeleteFunc(counters, func(_ string, n uint64) bool { return n == 0 })
	if !maps.Equal(counters, m.counters) {
		t.Fatalf("counters %v, model %v", counters, m.counters)
	}

	// The state dir holds exactly the model's files: the log, whose live
	// and parked records are the model's, a checkpoint beside a job where
	// it has one, a claimed checkpoint where a job holds one, and the
	// quarantined files.
	want, wantParked := []string{logName}, map[string]bool{}
	for id, rec := range m.disk {
		wantParked[id] = rec.parked
		if rec.ckpt {
			want = append(want, id+".ckpt")
		}
		if rec.claims != "" {
			want = append(want, rec.claims+".ckpt")
		}
	}
	for name := range m.quarantined {
		want = append(want, filepath.Join(QuarantineDir, name))
	}
	sort.Strings(want)
	if got := m.mem.names(propDir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("state dir holds %v, want %v", got, want)
	}
	recs, _, torn := replayLog(t, m.mem, propDir)
	parked := map[string]bool{}
	for id, r := range recs {
		parked[id] = r.parked
	}
	if torn != nil || !maps.Equal(parked, wantParked) {
		t.Fatalf("admission log: records %v, parked or not (torn tail %v); want %v", parked, torn, wantParked)
	}
	// A park in memory is one on disk: a resubmission claims only what a
	// restart would find.
	files := m.mem.names(propDir)
	for _, id := range parkIDs {
		if !parked[id] || !slices.Contains(files, id+".ckpt") {
			t.Fatalf("key parked as %s in memory; the log holds it parked %v, the state dir holds %v", id, parked[id], files)
		}
	}
}

// finish runs every job to completion and checks that the terminal-state
// counters account for every job the last boot admitted.
func (m *keyMachine) finish() {
	t := m.t
	for len(m.running) > 0 {
		m.end(m.running[0], vFinish, "")
		m.check()
	}
	if len(m.queue) != 0 {
		t.Fatalf("queue still holds jobs with idle workers")
	}
	var sum uint64
	for _, name := range terminalCounter {
		sum += m.counters[name]
	}
	if sum != uint64(m.admitted) {
		t.Fatalf("terminal-state counters sum to %d, %d jobs were admitted", sum, m.admitted)
	}
	if err := m.pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.fold()
}

// TestKeyStateMachineProperty drives random operation sequences against a
// pool, boot after boot over one state dir, and a small reference model.
// The operations are submit, duplicate submit, a burst of submissions of
// unheld keys that fills the queue, persist fault, a resubmission of a
// spec's JSON bytes through SubmitJSON, cancel, finish,
// fail, deadline, stall, drain and a crash at a random disk operation of
// a submit or an ending; a drain or a crash is followed by a restart and
// Recover. After every step each content key is in exactly one
// state — the model's — and the counters, gauges, bounded populations
// (the retained terminal jobs among them), job table and state dir agree
// with it; each job ends once, with one terminal event.
func TestKeyStateMachineProperty(t *testing.T) {
	const seed, sequences = 1, 500
	u, reached := newKeyUniverse(t), map[string]uint64{}
	var seq int64
	defer func() {
		if t.Failed() {
			t.Logf("failing sequence: seed %d", seq)
		}
	}()
	for s := 0; s < sequences; s++ {
		seq = seed*1_000_003 + int64(s)
		m := newKeyMachine(t, seq, u, reached)
		for i := 0; i < propSteps; i++ {
			m.step()
			m.settleDown()
			m.check()
		}
		m.finish()
	}
	t.Logf("transitions reached over %d sequences: %v", sequences, reached)
	// The generator still reaches every transition the model knows, and
	// turns submissions away from a full queue often, not by chance.
	floor := map[string]uint64{"queue_full_rejected": 50, "checkpoints_quarantined": 20}
	for _, name := range []string{
		"jobs_recovered", "jobs_recovered_dup", "jobs_parked_recovered", "recover_left_on_disk",
		"tmp_files_swept", "checkpoints_quarantined", "parked_resumed", "parked_evicted",
		"cache_evictions", "persist_errors", "watchdog_preemptions", "jobs_deadline_exceeded",
		"queue_full_rejected", "body_hits", "parks_lost",
	} {
		if reached[name] < max(1, floor[name]) {
			t.Errorf("sequences reached %s %d times, want at least %d", name, reached[name], max(1, floor[name]))
		}
	}
}
