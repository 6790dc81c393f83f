package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// This file pins the ordering contract of the pooled near/far queue and the
// indexed timer heap against a textbook container/heap reference engine.
// Both implementations are driven through the same seeded trajectory —
// timestamp collisions, delays on every side of the near window,
// in-callback scheduling into either heap, cancellations (including
// re-armed bands that only ever leave a heap through compaction), Timers
// re-armed, stopped and firing in between (the reference models a re-arm
// as Cancel plus At, and a stop as Cancel), Stop, supervisor preemption,
// Step and SetNow — and must execute events in exactly the same order at
// exactly the same clock readings, with the same number pending at every
// checkpoint of the script. The pooled engine runs it with the window
// forced to 0 (every delayed event is far), at its default, and at +Inf
// (one heap): where a slot waits must not show. Any divergence in
// (when, seq) semantics, lazy-cancel handling, head selection, timer
// re-arming or compaction would show up as a reordered trajectory here.

type refEvent struct {
	when     float64
	seq      uint64
	fn       func()
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	return ev
}

// refEngine is the oracle: the straightforward binary-heap engine the
// pooled queue replaced, with identical (when, seq), Stop, supervisor-poll
// and SetNow semantics.
type refEngine struct {
	now       float64
	seq       uint64
	heap      refHeap
	executed  uint64
	stopped   bool
	preempted bool
	super     *Supervisor
}

func (e *refEngine) Now() float64 { return e.now }

func (e *refEngine) At(when float64, fn func()) any {
	if when < e.now {
		when = e.now
	}
	e.seq++
	ev := &refEvent{when: when, seq: e.seq, fn: fn}
	heap.Push(&e.heap, ev)
	return ev
}

func (e *refEngine) Cancel(h any) {
	ev := h.(*refEvent)
	ev.canceled = true
	ev.fn = nil
}

// head drops cancelled entries and returns the next event, or nil.
func (e *refEngine) head() *refEvent {
	for e.heap.Len() > 0 {
		if ev := e.heap[0]; !ev.canceled {
			return ev
		}
		heap.Pop(&e.heap)
	}
	return nil
}

func (e *refEngine) Run(until float64) {
	e.stopped, e.preempted = false, false
	for !e.stopped {
		ev := e.head()
		if ev == nil || ev.when > until {
			break
		}
		if n := e.executed + 1; e.super != nil && n%superviseStride == 0 && e.super.Stop.Load() {
			e.stopped, e.preempted = true, true
		}
		e.step(ev)
	}
	if !e.preempted && e.now < until && until != Forever {
		e.now = until
	}
}

func (e *refEngine) step(ev *refEvent) {
	heap.Pop(&e.heap)
	e.now = ev.when
	e.executed++
	ev.fn()
}

func (e *refEngine) Step() bool {
	ev := e.head()
	if ev == nil {
		return false
	}
	e.step(ev)
	return true
}

func (e *refEngine) Stop()                   { e.stopped = true }
func (e *refEngine) Supervise(s *Supervisor) { e.super = s }
func (e *refEngine) Preempted() bool         { return e.preempted }

func (e *refEngine) SetNow(t float64) {
	if e.head() != nil {
		panic("ref: SetNow with a non-empty schedule")
	}
	e.now = t
}

func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.heap {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// refTimer is a Timer as the reference spells it: an event cancelled and
// scheduled anew on every re-arm.
type refTimer struct {
	e  *refEngine
	ev any
	fn func()
}

func (e *refEngine) NewTimer(fn func()) timerUnderTest { return &refTimer{e: e, fn: fn} }

func (t *refTimer) ResetAt(when float64) {
	t.Stop()
	t.ev = t.e.At(when, func() { t.ev = nil; t.fn() })
}

func (t *refTimer) Reset(delay float64) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.e.now + delay)
}

func (t *refTimer) Stop() {
	if t.ev != nil {
		t.e.Cancel(t.ev)
		t.ev = nil
	}
}

// schedulerUnderTest is the common surface the trajectory driver needs.
type schedulerUnderTest interface {
	Now() float64
	At(when float64, fn func()) any
	Cancel(h any)
	Run(until float64)
	Step() bool
	Stop()
	Supervise(s *Supervisor)
	Preempted() bool
	SetNow(t float64)
	Pending() int
	NewTimer(fn func()) timerUnderTest
}

type timerUnderTest interface {
	ResetAt(when float64)
	Reset(delay float64)
	Stop()
}

type engineAdapter struct{ *Engine }

func (a engineAdapter) At(when float64, fn func()) any    { return a.Engine.At(when, fn) }
func (a engineAdapter) Cancel(h any)                      { a.Engine.Cancel(h.(*Event)) }
func (a engineAdapter) NewTimer(fn func()) timerUnderTest { return a.Engine.NewTimer(fn) }

// engineWithWindow is the test hook for the near/far split: production
// engines always use nearWindow.
func engineWithWindow(w Time) *Engine {
	e := NewEngine()
	e.window = w
	return e
}

// timerIDs is the first log id of a Timer firing; ids below it are events.
const timerIDs = 1 << 20

// executedAt is one entry of a trajectory's log: which event ran, and what
// the clock read when it did.
type executedAt struct {
	id  int
	now float64
}

// straddle returns a delay from one of the bands around the near window:
// zero, just under it, exactly it, just over it, the far future, or a
// negative delay the engine clamps to "now".
func straddle(rng *rand.Rand) float64 {
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return math.Nextafter(nearWindow, 0)
	case 2:
		return nearWindow
	case 3:
		return math.Nextafter(nearWindow, math.Inf(1))
	case 4:
		return nearWindow * (40 + float64(rng.Intn(20)))
	case 5:
		return -3
	default:
		return nearWindow * float64(rng.Intn(8)) / 4 // collisions on both sides
	}
}

// driveTrajectory runs one seeded script against s and returns the log of
// executed events. The script only draws randomness in a sequence
// determined by execution order, so two implementations with identical
// ordering consume identical draws.
func driveTrajectory(s schedulerUnderTest, seed int64) []executedAt {
	rng := rand.New(rand.NewSource(seed))
	var log []executedAt
	nextID := 0
	type handleRec struct {
		h    any
		open bool
	}
	var recs []*handleRec

	cancelRandom := func() {
		victim := recs[rng.Intn(len(recs))]
		if victim.open {
			victim.open = false
			s.Cancel(victim.h)
		}
	}

	// Timers: each firing is logged under its own id. A timer that has
	// fired fewer than maxFires times may re-arm itself, the way a node's
	// depletion deadline re-anchors when it fires early, and may re-arm or
	// stop a peer; events and the script touch them too. The cap bounds the
	// chain reaction so every drain terminates.
	const maxFires = 4
	timers := make([]timerUnderTest, 12)
	fires := make([]int, len(timers))
	touchTimer := func() {
		t := timers[rng.Intn(len(timers))]
		switch rng.Intn(4) {
		case 0:
			t.Stop()
		case 1:
			t.Reset(straddle(rng))
		default:
			t.ResetAt(s.Now() + straddle(rng))
		}
	}
	for k := range timers {
		k := k
		timers[k] = s.NewTimer(func() {
			log = append(log, executedAt{timerIDs + k, s.Now()})
			fires[k]++
			if fires[k] > maxFires {
				return
			}
			if rng.Intn(2) == 0 {
				timers[k].ResetAt(s.Now() + straddle(rng))
			}
			if rng.Intn(3) == 0 {
				touchTimer()
			}
		})
	}
	mark := func(id int) {
		log = append(log, executedAt{id, s.Now()}, executedAt{id, float64(s.Pending())})
	}

	// scheduleOne arms one event; extra, when set, runs inside its callback
	// after the common behaviour.
	var scheduleOne func(when float64, depth int, extra func()) *handleRec
	scheduleOne = func(when float64, depth int, extra func()) *handleRec {
		id := nextID
		nextID++
		rec := &handleRec{open: true}
		rec.h = s.At(when, func() {
			rec.open = false
			log = append(log, executedAt{id, s.Now()})
			// Model code schedules follow-ups and cancels peers from inside
			// callbacks; a follow-up's band is drawn independently of the
			// band its parent waited in, so near events arm far ones and
			// far events arm near ones.
			if depth < 3 && rng.Intn(3) == 0 {
				scheduleOne(s.Now()+straddle(rng), depth+1, nil)
			}
			if rng.Intn(8) == 0 {
				cancelRandom()
			}
			if rng.Intn(6) == 0 {
				touchTimer()
			}
			if extra != nil {
				extra()
			}
		})
		recs = append(recs, rec)
		return rec
	}

	// rearm cancels and re-arms one timer n times at now+base+i·step: all
	// but the last arming become tombstones that never reach a heap's head,
	// so only compaction can reclaim them.
	rearm := func(n int, base, step float64) {
		var cur *handleRec
		for i := 0; i < n; i++ {
			if cur != nil {
				cur.open = false
				s.Cancel(cur.h)
			}
			cur = scheduleOne(s.Now()+base+float64(i)*step, 0, nil)
		}
	}

	// Near-term burst with heavy timestamp collisions (forces FIFO
	// tie-breaking), a far-future band, delays on every side of the window,
	// and a churned timer in each band.
	for i := 0; i < 400; i++ {
		scheduleOne(float64(rng.Intn(40)), 0, nil)
	}
	for i := 0; i < 300; i++ {
		scheduleOne(1000+float64(rng.Intn(20)), 0, nil)
	}
	for i := 0; i < 300; i++ {
		scheduleOne(straddle(rng), 0, nil)
	}
	rearm(200, nearWindow/2, nearWindow/1024)
	rearm(200, 5000, 1)
	for i := 0; i < 250; i++ {
		cancelRandom()
	}
	for _, t := range timers {
		t.ResetAt(straddle(rng) * float64(1+rng.Intn(30)))
	}
	for i := 0; i < 60; i++ {
		touchTimer()
	}
	mark(-5)

	// scripted arms an event the random cancellations cannot reach.
	scripted := func(when float64, do func()) {
		scheduleOne(when, 3, do)
		recs = recs[:len(recs)-1]
	}

	// Engine.Stop from a callback; then Step, and scheduling from outside
	// any callback at the stop point.
	scripted(20, s.Stop)
	s.Run(500)
	mark(-1)
	for i := 0; i < 40; i++ {
		scheduleOne(s.Now()+straddle(rng), 0, nil)
	}
	for i := 0; i < 20; i++ {
		touchTimer()
	}
	for i := 0; i < 25; i++ {
		s.Step()
	}
	rearm(150, nearWindow/4, nearWindow/512)
	s.Run(500)
	mark(-2)

	// Supervisor preemption: the flag is raised from a callback and honoured
	// at the next poll boundary with the clock held there.
	var sup Supervisor
	s.Supervise(&sup)
	scripted(1003, func() { sup.Stop.Store(true) })
	for i := 0; i < 2*superviseStride; i++ {
		scheduleOne(1003+straddle(rng), 1, nil)
	}
	for _, t := range timers {
		t.ResetAt(1003 + straddle(rng))
	}
	s.Run(2000)
	if !s.Preempted() {
		panic("trajectory: the supervisor stop was not honoured")
	}
	mark(-3)
	sup.Stop.Store(false)
	rearm(150, 3000, 2)
	s.Run(2000)
	s.Supervise(nil)

	// Drain, move the clock (backwards: only legal on an empty schedule),
	// and go again: the split is relative to the clock at scheduling time.
	s.Run(Forever)
	mark(-4)
	s.SetNow(7)
	for i := range fires {
		fires[i] = 0
	}
	for i := 0; i < 200; i++ {
		scheduleOne(s.Now()+straddle(rng), 0, nil)
	}
	for i := 0; i < 30; i++ {
		touchTimer()
	}
	s.Run(Forever)
	return log
}

func TestEngineMatchesReferenceHeap(t *testing.T) {
	windows := []struct {
		name string
		w    Time
	}{
		{"all-far", 0},
		{"default", nearWindow},
		{"all-near", math.Inf(1)},
	}
	for seed := int64(1); seed <= 10; seed++ {
		want := driveTrajectory(&refEngine{}, seed)
		if len(want) < 1500 {
			t.Fatalf("seed %d: the reference executed only %d events", seed, len(want))
		}
		firings := 0
		for _, x := range want {
			if x.id >= timerIDs {
				firings++
			}
		}
		if firings < 100 {
			t.Fatalf("seed %d: only %d timer firings; the script does not exercise the timer heap", seed, firings)
		}
		for _, win := range windows {
			eng := engineWithWindow(win.w)
			got := driveTrajectory(engineAdapter{eng}, seed)
			if len(got) != len(want) {
				t.Fatalf("seed %d, %s: executed %d events, reference executed %d",
					seed, win.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, %s: trajectories diverge at position %d: got %+v, reference %+v",
						seed, win.name, i, got[i], want[i])
				}
			}
			if eng.Pending() != 0 {
				t.Fatalf("seed %d, %s: %d events still pending after exhaustive run",
					seed, win.name, eng.Pending())
			}
			if s := eng.Stats(); s.Compactions == 0 {
				t.Fatalf("seed %d, %s: the churned timers never forced a compaction", seed, win.name)
			}
			switch {
			case win.w == 0 && eng.Stats().NearSlots >= eng.Stats().HeapSlots/2:
				t.Fatalf("seed %d: window 0 still filled the near heap: %+v", seed, eng.Stats())
			case math.IsInf(win.w, 1) && cap(eng.far.heap) != 0:
				t.Fatalf("seed %d: window +Inf used the far heap (%d slots)", seed, cap(eng.far.heap))
			}
		}
	}
}

// TestCompactionIsPerHeap pins the point of counting tombstones per heap:
// a timer re-armed over and over inside the window is swept out of the near
// heap without touching the thousand long timers parked in the far heap,
// and the far heap is swept for its own tombstones only.
func TestCompactionIsPerHeap(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 1000; i++ {
		e.AtArg(1e6+float64(i), fn, nil)
	}
	rearm := func(n int, at func(i int) Time) {
		var ev *Event
		for i := 0; i < n; i++ {
			e.Cancel(ev)
			ev = e.AtArg(at(i), fn, nil)
		}
	}

	rearm(500, func(i int) Time { return nearWindow / 2 })
	if s := e.Stats(); s.Compactions == 0 || len(e.near.heap) >= 128 || e.far.dead != 0 || len(e.far.heap) != 1000 {
		t.Fatalf("near churn: %d compactions, near %d slots, far %d slots (%d dead); want the near heap swept alone",
			s.Compactions, len(e.near.heap), len(e.far.heap), e.far.dead)
	}
	before := e.Stats().Compactions

	// 500 far tombstones among 1000 live timers never reach "half the heap".
	rearm(500, func(i int) Time { return 2e6 + float64(i) })
	if got := e.Stats().Compactions; got != before {
		t.Fatalf("far heap compacted %d times below its own threshold", got-before)
	}
	rearm(1200, func(i int) Time { return 3e6 + float64(i) })
	if got := e.Stats().Compactions; got == before {
		t.Fatal("far heap never compacted although its tombstones outnumber its live timers")
	}
	if e.Pending() != 1003 {
		t.Fatalf("Pending() = %d, want the 1000 timers and the three re-armed ones", e.Pending())
	}
	e.Run(Forever)
	if e.Executed() != 1003 || e.Pending() != 0 {
		t.Fatalf("executed %d, pending %d; want 1003 and 0", e.Executed(), e.Pending())
	}
}
