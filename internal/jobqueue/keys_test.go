package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
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

// names returns the base names of the files present, sorted.
func (m *memFS) names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, filepath.Base(name))
	}
	sort.Strings(out)
	return out
}

// TestMemFSMatchesOS tests the fake before the sweep and the property
// test trust it: the operations persistSpec, persistCheckpoint,
// quarantine and Recover issue — and the ways they fail on a missing file
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
		return log
	}

	want := strings.Join(drive(durable.OS{}, filepath.Join(t.TempDir(), "state")), "\n")
	got := strings.Join(drive(newMemFS(), "/state"), "\n")
	if got != want {
		t.Fatalf("memFS and durable.OS diverge\nmemFS:\n%s\nOS:\n%s", got, want)
	}
	// The script's own sanity: it reached the states it was written for.
	for _, frag := range []string{"not-exist", "corrupt", "[j-1.ckpt j-1.spec.json]", "[j-2.spec.json]", `"parked spec"`, "remove ckpt again: not-exist; . = [quarantine/]"} {
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

// modelJob is one accepted submission as the model tracks it.
type modelJob struct {
	job      *Job
	key      int
	deadline bool // carries a DeadlineSeconds budget
	resumed  bool // claimed a park at admission
	husk     bool // stopped while queued; its queue slot is still occupied
	events   <-chan Event
}

type verdict int

const (
	vFinish verdict = iota
	vFail
	vPreempt
)

const (
	propKeys    = 5
	propWorkers = 2
	propDepth   = 3
	propCap     = 2
	propSteps   = 20
)

// keyMachine drives one pool and the model side by side.
type keyMachine struct {
	t    *testing.T
	rng  *rand.Rand
	pool *Pool
	mem  *memFS
	ffs  *durable.FaultFS

	specs []*Spec  // the key universe, normalized
	keys  []string // their content keys
	gates []chan verdict

	runsCalled atomic.Int64
	wantResume [propKeys]atomic.Bool
	runErr     atomic.Value // first inconsistency the injected Run saw

	state    [propKeys]modelState
	active   [propKeys]*modelJob
	parkedID [propKeys]string
	queue    []*modelJob // occupied queue slots in order, husks included
	running  []*modelJob
	cached   []int // cached keys, oldest first
	parked   []int // parked keys, oldest first
	accepted []*modelJob
	runs     int64  // runs the model has dispatched
	retained []*Job // terminal jobs still in the job table, oldest ending first
	evicted  []*Job // terminal jobs pushed out of it
}

func newKeyMachine(t *testing.T, seed int64) *keyMachine {
	m := &keyMachine{t: t, rng: rand.New(rand.NewSource(seed)), mem: newMemFS()}
	m.ffs = durable.NewFaultFS(m.mem)
	for k := 0; k < propKeys; k++ {
		spec := testSpec(int64(k))
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		m.specs = append(m.specs, spec)
		m.keys = append(m.keys, spec.Key())
		m.gates = append(m.gates, make(chan verdict, 1))
	}
	m.pool = New(Config{
		Workers: propWorkers, QueueDepth: propDepth, CacheCap: propCap,
		StateDir: "/state", FS: m.ffs,
		WatchdogInterval: time.Hour, // deadlines expire only when the test says so
		Run:              m.run,
	})
	m.pool.Start()
	return m
}

// run is the injected executor: it parks on the key's gate until the test
// delivers a verdict. One key has at most one active job, so the seed
// identifies the gate.
func (m *keyMachine) run(rc experiment.RunConfig) (*experiment.RunStats, error) {
	k := int(rc.Network.Seed)
	m.runsCalled.Add(1)
	if got, want := rc.Resume != nil, m.wantResume[k].Load(); got != want {
		m.runErr.CompareAndSwap(nil, fmt.Sprintf("key %d: run resumed from a park = %v, model says %v", k, got, want))
	}
	switch <-m.gates[k] {
	case vFinish:
		return &experiment.RunStats{}, nil
	case vFail:
		return nil, errors.New("injected run failure")
	default:
		if !rc.Supervisor.Stop.Load() {
			m.runErr.CompareAndSwap(nil, "preempt verdict delivered but the supervisor's stop flag is not set")
		}
		if rc.OnPreempt != nil {
			rc.OnPreempt(&checkpoint.Snapshot{})
		}
		return &experiment.RunStats{Preempted: true}, nil
	}
}

// dispatch mirrors the workers: each free worker takes the head of the
// queue, discarding husks.
func (m *keyMachine) dispatch() {
	for len(m.running) < propWorkers && len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		if !j.husk {
			m.running = append(m.running, j)
			m.runs++
		}
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

// leave moves an ended job's key out of the active state in the model.
func (m *keyMachine) leave(j *modelJob, to modelState) {
	m.retire(j.job)
	k := j.key
	m.state[k], m.active[k] = to, nil
	var population *[]int
	switch to {
	case mParked:
		population, m.parkedID[k] = &m.parked, j.job.ID
	case mCached:
		population = &m.cached
	default:
		return
	}
	*population = append(*population, k)
	if len(*population) > propCap { // oldest first out
		m.state[(*population)[0]] = mAbsent
		*population = (*population)[1:]
	}
}

func (m *keyMachine) submit(k int, deadline, fault bool) {
	t := m.t
	spec := *m.specs[k]
	if deadline {
		spec.DeadlineSeconds = 3600
	}
	full := len(m.queue) >= propDepth
	claimable := m.state[k] == mAbsent || m.state[k] == mParked
	if claimable { // no job of this key exists whose run could still read it
		m.wantResume[k].Store(m.state[k] == mParked)
	}
	if fault {
		m.ffs.FailWrites(syscall.ENOSPC)
		defer m.ffs.FailWrites(nil)
	}
	job, outcome, err := m.pool.Submit(&spec)
	switch {
	case m.state[k] == mCached:
		if err != nil || outcome != OutcomeCached || job.State() != StateDone {
			t.Fatalf("submit of cached key: %v, %v; want cached", outcome, err)
		}
		m.retire(job)
	case m.state[k] == mActive:
		if err != nil || outcome != OutcomeCoalesced || job != m.active[k].job {
			t.Fatalf("submit of active key: %v, %v; want coalesced onto %s", outcome, err, m.active[k].job.ID)
		}
	case claimable && full:
		var qf *QueueFullError
		if !errors.As(err, &qf) {
			t.Fatalf("submit into a full queue: %v, %v; want *QueueFullError", outcome, err)
		}
	case fault:
		var perr *PersistError
		if !errors.As(err, &perr) {
			t.Fatalf("submit with a failing disk: %v, %v; want *PersistError", outcome, err)
		}
		if m.state[k] == mParked { // the rolled-back claim re-parks as the newest
			m.parked = append(removeInt(m.parked, k), k)
		}
	default:
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("submit of %v key: %v, %v; want accepted", m.state[k], outcome, err)
		}
		j := &modelJob{job: job, key: k, deadline: deadline, resumed: m.state[k] == mParked}
		j.events, _ = job.Subscribe()
		if j.resumed {
			m.parked = removeInt(m.parked, k)
		}
		m.state[k], m.active[k] = mActive, j
		m.queue = append(m.queue, j)
		m.accepted = append(m.accepted, j)
		m.dispatch()
	}
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

// stopQueued checks a job stopped while queued: terminal at once, its
// slot a husk.
func (m *keyMachine) stopQueued(j *modelJob, want State) {
	if st := j.job.State(); st != want {
		m.t.Fatalf("queued job %s after stop: state %s, want %s", j.job.ID, st, want)
	}
	j.husk = true
	m.leave(j, mAbsent)
}

// end delivers a verdict to a running job, waits for its terminal state
// and moves the model along. It returns once the pool has caught up, so
// the job has retired before the next verdict can end another.
func (m *keyMachine) end(j *modelJob, v verdict, want State, to modelState) {
	defer m.settleDown()
	m.gates[j.key] <- v
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j.job.Wait(ctx)
	if st := j.job.State(); st != want {
		m.t.Fatalf("running job %s after verdict %d: state %s, want %s", j.job.ID, v, st, want)
	}
	for i, r := range m.running {
		if r == j {
			m.running = append(m.running[:i:i], m.running[i+1:]...)
			break
		}
	}
	m.leave(j, to)
	m.dispatch()
}

func (m *keyMachine) queuedJobs() []*modelJob {
	var out []*modelJob
	for _, j := range m.queue {
		if !j.husk {
			out = append(out, j)
		}
	}
	return out
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
	switch op := m.rng.Intn(10); op {
	case 0, 1, 2: // submit, sometimes with a deadline budget
		m.submit(k, m.rng.Intn(3) == 0, false)
	case 3: // duplicate submit of an active key
		if j := pick(append(m.queuedJobs(), m.running...)); j != nil {
			k = j.key
		}
		m.submit(k, false, false)
	case 4: // persist fault
		m.submit(k, false, true)
	case 5: // cancel queued
		if j := pick(m.queuedJobs()); j != nil {
			if _, found, requested := m.pool.Cancel(j.job.ID); !found || !requested {
				m.t.Fatalf("Cancel(%s) = found %v requested %v", j.job.ID, found, requested)
			}
			m.stopQueued(j, StateCancelled)
		}
	case 6: // cancel running: the run parks its checkpoint
		if j := pick(m.running); j != nil {
			m.pool.Cancel(j.job.ID)
			m.end(j, vPreempt, StateCancelled, mParked)
		}
	case 7: // let finish
		if j := pick(m.running); j != nil {
			m.end(j, vFinish, StateDone, mCached)
		}
	case 8: // let fail
		if j := pick(m.running); j != nil {
			m.end(j, vFail, StateFailed, mAbsent)
		}
	case 9: // expire every deadline budget
		m.pool.superviseOnce(time.Now().Add(2 * time.Hour))
		for _, j := range m.queuedJobs() {
			if j.deadline {
				m.stopQueued(j, StateDeadline)
			}
		}
		for _, j := range append([]*modelJob(nil), m.running...) {
			if j.deadline {
				m.end(j, vPreempt, StateDeadline, mParked)
			}
		}
	}
}

// settleDown waits until the workers have caught up with the model: the
// queue drained to the model's slots, every dispatched run inside Run.
func (m *keyMachine) settleDown() {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.pool.Stats()
		ok := st.QueueDepth == len(m.queue) && st.InFlight == len(m.running) && m.runsCalled.Load() == m.runs
		for _, j := range m.running {
			ok = ok && j.job.State() == StateRunning
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("pool never reached the model's state: queue %d/%d in-flight %d/%d runs %d/%d",
				st.QueueDepth, len(m.queue), st.InFlight, len(m.running), m.runsCalled.Load(), m.runs)
		}
		time.Sleep(20 * time.Microsecond)
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
	known := 0
	for k, key := range m.keys {
		e := p.keys[key]
		var ok bool
		switch m.state[k] {
		case mAbsent:
			ok = e == nil
		case mActive:
			ok = e != nil && e.state == keyActive && e.job == m.active[k].job && e.res == nil && e.park.snap == nil && e.elem == nil
		case mParked:
			ok = e != nil && e.state == keyParked && e.job == nil && e.res == nil && e.park.snap != nil && e.park.id == m.parkedID[k]
		case mCached:
			ok = e != nil && e.state == keyCached && e.job == nil && e.res != nil && e.park.snap == nil
		}
		if !ok {
			p.mu.Unlock()
			t.Fatalf("key %d: table entry %+v does not match model state %d", k, e, m.state[k])
		}
		if e != nil {
			known++
		}
	}
	tableSize := len(p.keys)
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
	jobIDs := func(js []*Job) []string {
		out := make([]string, len(js))
		for i, j := range js {
			out[i] = j.ID
		}
		return out
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
	live := append(m.queuedJobs(), m.running...)
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

	// Gauges: occupied slots (husks included) plus busy workers.
	st := p.Stats()
	if st.QueueDepth+st.InFlight != len(m.queue)+len(m.running) || st.QueueDepth+st.InFlight > propDepth+propWorkers {
		t.Fatalf("queue depth %d + in-flight %d, model %d + %d", st.QueueDepth, st.InFlight, len(m.queue), len(m.running))
	}
	if st.CacheEntries != len(m.cached) {
		t.Fatalf("CacheEntries = %d, model has %d", st.CacheEntries, len(m.cached))
	}

	// The state dir holds exactly: a spec per active job (plus the
	// re-homed checkpoint if it claimed a park) and a pair per parked key.
	var want []string
	for k := range m.keys {
		switch m.state[k] {
		case mActive:
			want = append(want, m.active[k].job.ID+".spec.json")
			if m.active[k].resumed {
				want = append(want, m.active[k].job.ID+".ckpt")
			}
		case mParked:
			want = append(want, m.parkedID[k]+".spec.json", m.parkedID[k]+".ckpt")
		}
	}
	sort.Strings(want)
	if got := m.mem.names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("state dir holds %v, want %v", got, want)
	}
}

// finish drains the pool and checks the whole-sequence properties.
func (m *keyMachine) finish() {
	t := m.t
	for len(m.running) > 0 {
		m.end(m.running[0], vFinish, StateDone, mCached)
		m.settleDown()
		m.check()
	}
	if len(m.queuedJobs()) != 0 {
		t.Fatalf("queue still holds live jobs with idle workers")
	}
	// Every accepted job reached exactly one terminal state, announced by
	// exactly one terminal event.
	for _, j := range m.accepted {
		if !j.job.State().Terminal() {
			t.Fatalf("accepted job %s ended in state %s", j.job.ID, j.job.State())
		}
		terminal := 0
		for ev := range j.events { // closed by the terminal event
			switch ev.Type {
			case EventDone, EventFailed, EventSuspended, EventCancelled, EventDeadline:
				terminal++
				if string(ev.Type) != string(j.job.State()) {
					t.Fatalf("job %s: terminal event %s, final state %s", j.job.ID, ev.Type, j.job.State())
				}
			}
		}
		if terminal != 1 {
			t.Fatalf("job %s saw %d terminal events, want 1", j.job.ID, terminal)
		}
	}
	if got := terminalCounterSum(m.pool); got != uint64(len(m.accepted)) {
		t.Fatalf("terminal-state counters sum to %d, %d jobs were accepted", got, len(m.accepted))
	}
	if err := m.pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestKeyStateMachineProperty drives random operation sequences against a
// pool and a small reference model and checks, after every step, that
// each content key is in exactly one state — the model's — and that the
// gauges, the bounded populations (the retained terminal jobs among
// them), the job table and the state dir agree with it.
func TestKeyStateMachineProperty(t *testing.T) {
	const seed, sequences = 1, 200
	for s := 0; s < sequences; s++ {
		m := newKeyMachine(t, seed*1_000_003+int64(s))
		for i := 0; i < propSteps; i++ {
			m.step()
			m.settleDown()
			m.check()
		}
		m.finish()
	}
}
