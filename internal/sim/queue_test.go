package sim

import (
	"runtime"
	"testing"
	"time"
)

// Edge-case coverage for the pooled event queues: a stopped timer at the
// head, FIFO under mass timestamp collision, the SetNow safety panic, the
// near run's spill and head reclaim, callback release on execution, and the
// allocation-free steady state.

// TestCancelHeadThenPop stops the timer that holds the head of the
// schedule: it leaves at once, so Run executes only the survivors, in order.
func TestCancelHeadThenPop(t *testing.T) {
	e := NewEngine()
	var got []int
	head := e.NewTimer(func() { got = append(got, 1) })
	head.ResetAt(1)
	e.At(2, func() { got = append(got, 2) })
	e.At(3, func() { got = append(got, 3) })
	head.Stop()
	if p := e.Pending(); p != 2 {
		t.Fatalf("Pending() = %d after stopping the head, want 2", p)
	}
	e.Run(Forever)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("executed %v, want [2 3]", got)
	}
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after run, want 0", p)
	}
}

// TestCancelHeadThenStep is the same stopped head under Step: the first
// Step executes the survivor behind it, the next finds nothing.
func TestCancelHeadThenStep(t *testing.T) {
	e := NewEngine()
	fired := false
	head := e.NewTimer(func() { t.Fatal("stopped head timer fired") })
	head.ResetAt(1)
	e.At(2, func() { fired = true })
	head.Stop()
	if !e.Step() {
		t.Fatal("Step found no event despite a live one behind the stopped head")
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

// TestSetNowAfterStop checks that a stopped timer and a stopped ticker
// leave nothing behind that would make SetNow refuse to move the clock.
func TestSetNowAfterStop(t *testing.T) {
	e := NewEngine()
	timer := e.NewTimer(func() {})
	timer.Reset(5)
	ticker := e.NewTicker(6, func() {})
	timer.Stop()
	ticker.Stop()
	e.SetNow(42)
	if e.Now() != 42 || e.Pending() != 0 {
		t.Fatalf("Now() = %v with %d pending, want 42 and none", e.Now(), e.Pending())
	}
}

// TestExecutedEventReleasesCallback pins that a recycled event record does
// not keep its last callback (and anything the closure captured) alive
// while it waits on the free list.
func TestExecutedEventReleasesCallback(t *testing.T) {
	type payload struct{ buf []byte }
	e := NewEngine()
	finalized := make(chan struct{})
	p := &payload{buf: make([]byte, 1<<20)}
	runtime.SetFinalizer(p, func(*payload) { close(finalized) })
	func(p *payload) { e.Schedule(1, func() { _ = p.buf }) }(p)
	p = nil
	e.Run(Forever)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-finalized:
			if e.Stats().EventStructs != 1 {
				t.Fatalf("%+v; want the one record kept on the free list", e.Stats())
			}
			return
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Fatal("an executed event's record still retains its callback's captured state")
}

// TestStoppedTickersLeaveNoSlots stops 500 tickers parked far ahead: each
// leaves the timer heap on the spot, and the survivors still run in order.
func TestStoppedTickersLeaveNoSlots(t *testing.T) {
	e := NewEngine()
	var tickers []*Ticker
	for i := 0; i < 500; i++ {
		tickers = append(tickers, e.NewTickerAt(1e6+float64(i), 10, func() { t.Fatal("stopped ticker ticked") }))
	}
	var got []int
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	for _, tk := range tickers {
		tk.Stop()
	}
	if len(e.timers.heap) != 0 || e.Pending() != 2 {
		t.Fatalf("%d timer slots and %d pending after stopping every ticker, want 0 and 2",
			len(e.timers.heap), e.Pending())
	}
	e.Run(Forever)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("executed %v, want [1 2]", got)
	}
}

// TestNearRunSpillsPastMaxShift lands each event of a burst in front of the
// last: the run takes maxShift+1 of them, shifting one more slot each time,
// and passes the next to the far heap, from which it still runs in order.
func TestNearRunSpillsPastMaxShift(t *testing.T) {
	e := NewEngine()
	var got []Time
	const n = maxShift + 2
	for i := 0; i < n; i++ {
		e.At(nearWindow/2-Time(i)/1024, func() { got = append(got, e.Now()) })
	}
	if live := len(e.near.s) - e.near.h; live != maxShift+1 || len(e.far.heap) != 1 || e.near.spills != 1 {
		t.Fatalf("run holds %d, far heap %d, %d spills; want %d, 1 and 1",
			live, len(e.far.heap), e.near.spills, maxShift+1)
	}
	e.Run(Forever)
	if len(got) != n {
		t.Fatalf("executed %d of %d events", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("executed out of order: %v", got)
		}
	}
}

// TestNearRunReclaimsItsHead keeps the run 64 deep while its head advances:
// once the array is full and at least half of it is popped, an insertion
// slides the live slots down instead of growing the array, so the array
// stays within four times the run's depth however long it goes on.
func TestNearRunReclaimsItsHead(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	const depth, step = 64, nearWindow / 256
	for i := 0; i < depth; i++ {
		e.ScheduleArg(Time(i)*step, fn, nil)
	}
	for i := 0; i < 10*depth; i++ {
		e.Step()
		e.ScheduleArg(depth*step, fn, nil)
	}
	if e.near.reclaims == 0 || cap(e.near.s) > 4*depth {
		t.Fatalf("%d reclaims, %d slots for a run %d deep", e.near.reclaims, cap(e.near.s), depth)
	}
	if e.Pending() != depth {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), depth)
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
// run: every event record ever allocated is found in the near run, the far
// heap or on the free list whenever no callback is running, so Stats can
// count them without a tally on the hot path; timers and tickers own their
// firing and add none.
func TestStatsCountsStructsAtReadTime(t *testing.T) {
	e := NewEngine()
	if s := e.Stats(); s != (EngineStats{}) {
		t.Fatalf("fresh engine reports %+v, want zeros", s)
	}
	for i := 0; i < 500; i++ {
		e.At(1e6+float64(i), func() {})
	}
	for i := 0; i < 10; i++ {
		e.At(float64(i+1), func() {})
	}
	e.NewTicker(1e7, func() {})
	e.NewTimer(func() {}).Reset(1e7)
	if s := e.Stats(); s.EventStructs != 510 || s.Events != 0 || s.HeapSlots < 512 {
		t.Fatalf("after scheduling 510 events and two timers: %+v", s)
	}
	// The run reuses pooled structs: 10 executions and 100 more
	// schedule/execute cycles allocate nothing new.
	e.Run(20)
	for i := 0; i < 100; i++ {
		e.Schedule(1, func() {})
		e.Run(e.Now() + 2)
	}
	s := e.Stats()
	if s.Events != 110 || s.Events != e.Executed() {
		t.Errorf("Events = %d (Executed %d), want 110", s.Events, e.Executed())
	}
	if s.EventStructs != 510 {
		t.Errorf("EventStructs = %d after pooled reuse, want 510", s.EventStructs)
	}
}
