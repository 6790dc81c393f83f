package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// This file pins the ordering contract of the pooled engine — near run, far
// heap and indexed timer heap — against a textbook container/heap reference
// engine. Both implementations are driven through the same seeded
// trajectory — timestamp collisions, delays on every side of the near
// window, in-callback scheduling into either queue, bursts that land in
// front of a deep near run until it spills into the far heap, a conveyor
// that keeps the run full until it slides its live slots down over its
// popped head, Timers re-armed earlier and later, stopped and firing in
// between (the reference models a re-arm as a cancel plus At, and a stop as
// a cancel), Stop, supervisor preemption, Step and SetNow — and must
// execute events in exactly the same order at exactly the same clock
// readings, with the same number pending at every checkpoint of the
// script. The pooled engine runs it with the window forced to 0 (every
// delayed event is far), at its default, and at +Inf (every event is near
// unless the run spills it): where a slot waits must not show. Any
// divergence in (when, seq) semantics, head selection, run insertion,
// spilling or timer re-arming would show up as a reordered trajectory here.

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

func (e *refEngine) at(when float64, fn func()) *refEvent {
	if when < e.now {
		when = e.now
	}
	e.seq++
	ev := &refEvent{when: when, seq: e.seq, fn: fn}
	heap.Push(&e.heap, ev)
	return ev
}

func (e *refEngine) At(when float64, fn func()) { e.at(when, fn) }

// cancel is how the reference stops a timer: the entry stays in the heap,
// marked, and is dropped when it surfaces.
func (e *refEngine) cancel(ev *refEvent) {
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
	ev *refEvent
	fn func()
}

func (e *refEngine) NewTimer(fn func()) timerUnderTest { return &refTimer{e: e, fn: fn} }

func (t *refTimer) ResetAt(when float64) {
	t.Stop()
	t.ev = t.e.at(when, func() { t.ev = nil; t.fn() })
}

func (t *refTimer) Reset(delay float64) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.e.now + delay)
}

func (t *refTimer) Stop() {
	if t.ev != nil {
		t.e.cancel(t.ev)
		t.ev = nil
	}
}

// schedulerUnderTest is the common surface the trajectory driver needs.
type schedulerUnderTest interface {
	Now() float64
	At(when float64, fn func())
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
// ordering consume identical draws. atMark, when set, runs at every marker
// of the script.
func driveTrajectory(s schedulerUnderTest, seed int64, atMark func()) []executedAt {
	rng := rand.New(rand.NewSource(seed))
	var log []executedAt
	nextID := 0

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
		if atMark != nil {
			atMark()
		}
	}

	// scheduleOne arms one event; extra, when set, runs inside its callback
	// after the common behaviour.
	var scheduleOne func(when float64, depth int, extra func())
	scheduleOne = func(when float64, depth int, extra func()) {
		id := nextID
		nextID++
		s.At(when, func() {
			log = append(log, executedAt{id, s.Now()})
			// Model code schedules follow-ups and moves deadlines from inside
			// callbacks; a follow-up's band is drawn independently of the
			// band its parent waited in, so near events arm far ones and
			// far events arm near ones.
			if depth < 3 && rng.Intn(3) == 0 {
				scheduleOne(s.Now()+straddle(rng), depth+1, nil)
			}
			if rng.Intn(6) == 0 {
				touchTimer()
			}
			if extra != nil {
				extra()
			}
		})
	}

	// burst schedules n events inside the window, each due step before the
	// one scheduled just before it: every one lands in front of the last,
	// so the near run shifts one more slot each time until it refuses the
	// insertion and the event waits in the far heap.
	burst := func(n int, base, step float64) {
		for i := 0; i < n; i++ {
			scheduleOne(s.Now()+base-float64(i)*step, 3, nil)
		}
	}
	// conveyor schedules n events step apart, each of which schedules one
	// more n·step after itself for gens generations: every follow-up lands
	// behind everything queued, so the run stays n deep while its head
	// advances, and fills its array with a popped head that it must slide
	// down rather than grow.
	conveyor := func(n, gens int, step float64) {
		var link func(gen int) func()
		link = func(gen int) func() {
			return func() {
				if gen < gens {
					scheduleOne(s.Now()+float64(n)*step, 3, link(gen+1))
				}
			}
		}
		for i := 0; i < n; i++ {
			scheduleOne(s.Now()+float64(i)*step, 3, link(1))
		}
	}

	// Near-term burst with heavy timestamp collisions (forces FIFO
	// tie-breaking), a far-future band, delays on every side of the window,
	// spilling bursts in two bands and timers re-armed in every band.
	for i := 0; i < 400; i++ {
		scheduleOne(float64(rng.Intn(40)), 0, nil)
	}
	for i := 0; i < 300; i++ {
		scheduleOne(1000+float64(rng.Intn(20)), 0, nil)
	}
	for i := 0; i < 300; i++ {
		scheduleOne(straddle(rng), 0, nil)
	}
	burst(3*maxShift, nearWindow/2, nearWindow/1024)
	burst(2*maxShift, 5000, 1)
	for _, t := range timers {
		t.ResetAt(straddle(rng) * float64(1+rng.Intn(30)))
	}
	for i := 0; i < 60; i++ {
		touchTimer()
	}
	mark(-5)

	// Engine.Stop from a callback; then Step, and scheduling from outside
	// any callback at the stop point.
	scheduleOne(20, 3, s.Stop)
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
	burst(2*maxShift, nearWindow/4, nearWindow/512)
	s.Run(500)
	mark(-2)

	// Supervisor preemption: the flag is raised from a callback and honoured
	// at the next poll boundary with the clock held there.
	var sup Supervisor
	s.Supervise(&sup)
	scheduleOne(1003, 3, func() { sup.Stop.Store(true) })
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
	burst(2*maxShift, 3000, 2)
	s.Run(2000)
	s.Supervise(nil)

	// Drain, move the clock (backwards: only legal on an empty schedule),
	// and go again: the split is relative to the clock at scheduling time.
	// The conveyor runs on its own first, with nothing queued behind it.
	s.Run(Forever)
	mark(-4)
	s.SetNow(7)
	for i := range fires {
		fires[i] = 0
	}
	conveyor(64, 6, nearWindow/256)
	s.Run(Forever)
	mark(-6)
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
		want := driveTrajectory(&refEngine{}, seed, nil)
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
			var atMark func()
			if math.IsInf(win.w, 1) {
				// Nothing is beyond an infinite window, so a far-heap slot
				// can only be one the near run refused.
				atMark = func() {
					if len(eng.far.heap) > int(eng.near.spills) {
						t.Fatalf("seed %d: window +Inf holds %d far slots after %d spills",
							seed, len(eng.far.heap), eng.near.spills)
					}
				}
			}
			got := driveTrajectory(engineAdapter{eng}, seed, atMark)
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
			if win.w == 0 {
				if eng.Stats().NearSlots >= eng.Stats().HeapSlots/2 {
					t.Fatalf("seed %d: window 0 still filled the near run: %+v", seed, eng.Stats())
				}
				continue
			}
			if eng.near.spills == 0 || cap(eng.far.heap) == 0 {
				t.Fatalf("seed %d, %s: the near run never spilled into the far heap", seed, win.name)
			}
			if eng.near.reclaims == 0 {
				t.Fatalf("seed %d, %s: the near run never reclaimed its popped head", seed, win.name)
			}
		}
	}
}
