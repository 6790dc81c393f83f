package sim

import (
	"runtime"
	"testing"
	"time"
)

// Edge-case coverage for the pooled event queue: lazy cancellation at the
// heap head, FIFO under mass timestamp collision, the SetNow safety panic,
// callback release on Cancel (the event-retention leak fix), and the
// allocation-free steady state.

func TestCancelHeadThenPop(t *testing.T) {
	e := NewEngine()
	var got []int
	head := e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.At(3, func() { got = append(got, 3) })
	e.Cancel(head)
	if p := e.Pending(); p != 2 {
		t.Fatalf("Pending() = %d after head cancel, want 2", p)
	}
	// The tombstone is still the physical heap head; the first pop must
	// skip and release it, then execute the survivors in order.
	e.Run(Forever)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("executed %v, want [2 3]", got)
	}
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after run, want 0", p)
	}
}

func TestCancelHeadThenStep(t *testing.T) {
	e := NewEngine()
	fired := false
	head := e.At(1, func() { t.Fatal("cancelled head executed") })
	e.At(2, func() { fired = true })
	e.Cancel(head)
	if !e.Step() {
		t.Fatal("Step found no event despite a live one behind the tombstone")
	}
	if !fired {
		t.Fatal("Step executed the wrong event")
	}
	if e.Step() {
		t.Fatal("Step executed an event from an empty schedule")
	}
}

func TestMassSameTimestampFIFO(t *testing.T) {
	const n = 10000
	e := NewEngine()
	got := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run(Forever)
	if len(got) != n {
		t.Fatalf("executed %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at position %d: got id %d", i, v)
		}
	}
}

func TestSetNowPanicsWithLiveSchedule(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetNow with a live schedule did not panic")
		}
	}()
	e.SetNow(10)
}

func TestSetNowDrainsCancelledEvents(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(5, func() {})
	b := e.Schedule(6, func() {})
	e.Cancel(a)
	e.Cancel(b)
	// Only tombstones remain; SetNow must treat the schedule as empty and
	// drain them rather than panic.
	e.SetNow(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

// TestCancelReleasesCallback pins the event-retention fix: cancelling an
// event must drop its callback (and anything the closure captured)
// immediately, not when the tombstone eventually surfaces from the heap —
// for far-future timers that can be never.
func TestCancelReleasesCallback(t *testing.T) {
	type payload struct{ buf []byte }
	e := NewEngine()
	finalized := make(chan struct{})
	p := &payload{buf: make([]byte, 1<<20)}
	runtime.SetFinalizer(p, func(*payload) { close(finalized) })
	ev := e.Schedule(1e9, func() { _ = p.buf })
	p = nil
	e.Cancel(ev)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Fatal("cancelled event still retains its callback's captured state")
}

// TestCompactionReleasesTombstones verifies that a heap dominated by
// cancelled far-future events is compacted in place: the tombstones leave
// the queue without ever being popped, and the survivors still run in
// order.
func TestCompactionReleasesTombstones(t *testing.T) {
	e := NewEngine()
	var events []*Event
	for i := 0; i < 500; i++ {
		events = append(events, e.At(1e6+float64(i), func() {}))
	}
	var got []int
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	for _, ev := range events {
		e.Cancel(ev)
	}
	// Compaction triggers once tombstones dominate; the physical queue must
	// have shed them while keeping the two live events.
	if len(e.near.heap)+len(e.far.heap) >= 64 {
		t.Fatalf("queue still holds %d slots after mass cancel, want < 64", len(e.near.heap)+len(e.far.heap))
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run(Forever)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("executed %v, want [1 2]", got)
	}
}

// TestSteadyStateDoesNotAllocate verifies the pooled hot path: once the
// free list is primed, a schedule→execute cycle through the Arg variants
// performs zero heap allocations.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func(any) { fired++ }
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(1, fn, nil)
		e.Run(e.Now() + 2)
	}); avg != 0 {
		t.Fatalf("schedule/run cycle allocates %.1f objects per event, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("callback never ran")
	}
}

// TestStatsCountsStructsAtReadTime checks the engine's own account of a
// run: every Event struct ever allocated is found in the heap or on the
// free list whenever no callback is running, so Stats can count them
// without alloc() keeping a tally, and compactions are counted where they
// happen.
func TestStatsCountsStructsAtReadTime(t *testing.T) {
	e := NewEngine()
	if s := e.Stats(); s != (EngineStats{}) {
		t.Fatalf("fresh engine reports %+v, want zeros", s)
	}
	var far []*Event
	for i := 0; i < 500; i++ {
		far = append(far, e.At(1e6+float64(i), func() {}))
	}
	for i := 0; i < 10; i++ {
		e.At(float64(i+1), func() {})
	}
	if s := e.Stats(); s.EventStructs != 510 || s.Events != 0 || s.HeapSlots < 510 {
		t.Fatalf("after scheduling 510 events: %+v", s)
	}
	// Cancelling the far-future majority compacts at least once; the
	// released structs move to the free list and stay counted.
	for _, ev := range far {
		e.Cancel(ev)
	}
	s := e.Stats()
	if s.Compactions == 0 || s.EventStructs != 510 {
		t.Fatalf("after mass cancel: %+v, want a compaction and 510 structs", s)
	}
	// The run reuses pooled structs: 10 executions and 100 more
	// schedule/execute cycles allocate nothing new.
	e.Run(20)
	for i := 0; i < 100; i++ {
		e.Schedule(1, func() {})
		e.Run(e.Now() + 2)
	}
	s = e.Stats()
	if s.Events != 110 || s.Events != e.Executed() {
		t.Errorf("Events = %d (Executed %d), want 110", s.Events, e.Executed())
	}
	if s.EventStructs != 510 {
		t.Errorf("EventStructs = %d after pooled reuse, want 510", s.EventStructs)
	}
}
