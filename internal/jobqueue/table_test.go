package jobqueue

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/experiment"
)

// jobIDs lists the jobs' IDs.
func jobIDs(js []*Job) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

// finalized counts the jobs handed to track that the collector has
// freed, by ID.
type finalized struct {
	mu  sync.Mutex
	ids []string
}

// track sets a finalizer on j that records its ID once j is unreachable.
func (f *finalized) track(j *Job) {
	runtime.SetFinalizer(j, func(j *Job) {
		f.mu.Lock()
		f.ids = append(f.ids, j.ID)
		f.mu.Unlock()
	})
}

// settle collects until at least want tracked jobs were freed, or a
// while has passed, then collects twice more, so a job freed late shows
// too, and returns the freed IDs in ID order.
func (f *finalized) settle(want int) []string {
	count := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.ids)
	}
	for i := 0; i < 100 && count() < want; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	f.mu.Lock()
	ids := slices.Clone(f.ids)
	f.mu.Unlock()
	slices.SortFunc(ids, compareIDs)
	return ids
}

// TestForgottenJobIsCollectable: once CacheCap newer jobs have ended, a
// job leaves the job table, and nothing in the pool holds it any more.
// After CacheCap+k distinct jobs, exactly the k oldest are collected.
func TestForgottenJobIsCollectable(t *testing.T) {
	const cacheCap, k = 16, 5
	p, _ := instantPool(t, Config{Workers: 1, QueueDepth: 4, CacheCap: cacheCap})
	var f finalized
	var want []string
	for i := 0; i < cacheCap+k; i++ {
		j, _, err := p.Submit(testSpec(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, j)
		if i < k {
			want = append(want, j.ID)
		}
		f.track(j)
	}
	// The last job is retired on its worker just after it turns terminal.
	for deadline := time.Now().Add(10 * time.Second); p.Stats().InFlight > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := f.settle(k); !slices.Equal(got, want) {
		t.Fatalf("collected %v, want exactly the %d forgotten jobs %v", got, k, want)
	}
	if n := len(p.Jobs()); n != cacheCap {
		t.Fatalf("job table lists %d jobs, want %d", n, cacheCap)
	}
}

// TestAdmissionOrderPastSixDigits: Jobs, the watchdog and Recover keep
// admission order where the IDs outgrow jobID's six-digit padding, which a
// string sort of the IDs does not.
func TestAdmissionOrderPastSixDigits(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	p, _ := instantPool(t, Config{Workers: 1, QueueDepth: 4, WatchdogInterval: time.Hour,
		BeforeRun: func(j *Job) {
			if j.Summary.Seed == 0 {
				held <- struct{}{}
				<-release
			}
		}})
	defer close(release)
	p.advanceSeq(jobID(999997))
	if _, _, err := p.Submit(testSpec(0)); err != nil {
		t.Fatal(err)
	}
	<-held // j-999998 holds the worker; the rest queue behind it
	for seed := int64(1); seed <= 3; seed++ {
		s := testSpec(seed)
		s.DeadlineSeconds = 60
		if _, _, err := p.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"j-999998", "j-999999", "j-1000000", "j-1000001"}
	if got := jobIDs(p.Jobs()); !slices.Equal(got, want) {
		t.Fatalf("Jobs() = %v, want %v", got, want)
	}

	// One scan past every deadline stops the queued jobs, each settled as
	// the scan reaches it: they end, and retire, in admission order.
	p.superviseOnce(time.Now().Add(time.Hour))
	p.mu.Lock()
	var retired []string
	for e := p.finished.l.Front(); e != nil; e = e.Next() {
		retired = append(retired, e.Value.(*Job).ID)
	}
	p.mu.Unlock()
	if !slices.Equal(retired, want[1:]) {
		t.Fatalf("the watchdog retired %v, want %v", retired, want[1:])
	}
	if got := jobIDs(p.Jobs()); !slices.Equal(got, want) {
		t.Fatalf("after the scan Jobs() = %v, want %v", got, want)
	}

	// Recover loads live records in admission order too: with room for
	// one, the older admission is the one recovered.
	const dir = "/state"
	mem := newMemFS()
	p0 := New(Config{StateDir: dir, FS: mem})
	for i, id := range []string{"j-1000000", "j-999999"} {
		s := testSpec(int64(90 + i))
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if err := p0.logRecord(jobRecord{ID: id, Key: s.Key(), Spec: s}); err != nil {
			t.Fatal(err)
		}
	}
	p1 := New(Config{Workers: 1, QueueDepth: 1, StateDir: dir, FS: mem, Run: instantRun})
	if n, err := p1.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want the one job that fits the queue", n, err)
	}
	if got := jobIDs(p1.Jobs()); !slices.Equal(got, []string{"j-999999"}) {
		t.Fatalf("recovered %v, want the older admission j-999999", got)
	}
}

// TestFinishedJobFootprint holds the live heap one finished job costs the
// pool once its run is over: the job table's record, the cached result
// and the key table's entry, read after a collection. The request bodies
// are built before the baseline, so what is measured is what the pool
// keeps of a job. The figure is the one measured when it was set plus 10
// %; it is only ever lowered.
func TestFinishedJobFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const (
		cacheCap = 256
		budget   = 1200 // bytes per finished job
	)
	p, _ := instantPool(t, Config{Workers: 1, QueueDepth: 4, CacheCap: cacheCap})
	bodies := make([][]byte, 3*cacheCap)
	for i := range bodies {
		bodies[i] = specBody(t, testSpec(int64(1000+i)))
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heap() // a second collection frees what the first only finalized
	base := heap()
	for _, body := range bodies {
		j, _, err := p.SubmitJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, j)
	}
	for deadline := time.Now().Add(10 * time.Second); p.Stats().InFlight > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	per := float64(int64(heap())-int64(base)) / cacheCap
	runtime.KeepAlive(bodies)
	t.Logf("%.0f B of live heap per finished job (budget %d), %d jobs in the table", per, budget, len(p.Jobs()))
	if per > budget {
		t.Errorf("a finished job holds %.0f B of live heap, budget %d B", per, budget)
	}
}

// TestParkedKeyFootprint holds the live heap one parked key costs the
// pool: the key table's entry and its seat among the parked keys, the
// parked record the log keeps, and the cancelled job's record in the job
// table, read after a collection. Every run parks a real capture at
// t = 1000 s of a 40-node deployment, decoded afresh from one encoding,
// on a state dir on disk, so the checkpoint's bytes are in its file and
// not on the heap. The heap is read once the pool has shut down, so no
// worker's stack still holds the last run's snapshot. The figure is the one measured when it was set plus 10
// %; it is only ever lowered.
func TestParkedKeyFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const (
		parks  = 64
		budget = 1800 // bytes per parked key
	)
	capture := testSpec(1)
	capture.Horizon = 2000
	if err := capture.Normalize(); err != nil {
		t.Fatal(err)
	}
	rc := capture.RunConfig()
	rc.CheckpointEvery = 1000
	var raw []byte
	rc.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
		raw = s.EncodeBytes()
		return true
	}
	if _, err := experiment.Run(rc); err != nil || raw == nil {
		t.Fatalf("capturing at t = 1000 s: %v (captured %v)", err, raw != nil)
	}

	running := make(chan *Job, 1)
	p := New(Config{Workers: 1, QueueDepth: 4, CacheCap: parks, StateDir: t.TempDir(),
		BeforeRun: func(j *Job) { running <- j },
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			for !rc.Supervisor.Stop.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			snap, err := checkpoint.DecodeBytes(raw)
			if err != nil {
				return nil, err
			}
			rc.OnPreempt(snap)
			return &experiment.RunStats{Preempted: true}, nil
		}})
	p.Start()
	park := func(spec *Spec) {
		j, _, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-running
		cancelAndWait(t, p, j)
	}
	park(testSpec(1999)) // opens the log and builds what the first write builds once
	specs := make([]*Spec, parks)
	for i := range specs {
		specs[i] = testSpec(int64(2000 + i))
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heap() // a second collection frees what the first only finalized
	base := heap()
	for _, spec := range specs {
		park(spec)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	heap() // the closed files' finalizers
	per := float64(int64(heap())-int64(base)) / parks
	runtime.KeepAlive(specs)
	if got := p.Counters().Get("jobs_parked"); got != parks+1 {
		t.Fatalf("jobs_parked = %d, want %d", got, parks+1)
	}
	t.Logf("%.0f B of live heap per parked key (budget %d; the checkpoint file holds %d B)", per, budget, len(raw))
	if per > budget {
		t.Errorf("a parked key holds %.0f B of live heap, budget %d B", per, budget)
	}
}
