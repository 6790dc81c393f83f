// Package sim implements the deterministic discrete-event engine the PEAS
// evaluation runs on. The paper used PARSEC; this engine provides the same
// facilities — a virtual clock, scheduled callbacks, and cancellable timers
// — with exact reproducibility: a run is a pure function of the initial
// schedule and the RNG seeds used by the model code.
//
// The engine is single-threaded. Model code runs inside event callbacks and
// must not retain the engine across goroutines.
//
// The scheduler is built for an allocation-free hot path: events live in a
// free list and are reused, and the priority queue is three concrete 4-ary
// min-heaps over small value slots (no container/heap interface boxing):
// one for imminent events and one for later ones, see nearWindow, plus an
// indexed heap of armed Timers, whose deadlines move in place when they are
// re-armed (see timer.go). The AtArg/ScheduleArg variants let callers
// schedule a shared callback with a pooled argument record instead of a
// fresh closure. Execution order is exactly the classic (when, seq) order:
// strictly increasing timestamps, FIFO among simultaneous events, whichever
// heap an entry waits in.
package sim

import (
	"math"
	"sync/atomic"
)

// Time is a simulation timestamp in seconds since the start of the run.
type Time = float64

// Forever is a timestamp later than any event the engine will execute.
const Forever Time = math.MaxFloat64

// Event is a scheduled callback. The zero Event is invalid; obtain events
// through Engine.Schedule, Engine.At or their Arg variants.
//
// Executed events are recycled through a free list, so a caller that holds
// an *Event must drop the reference once the event has fired (the Ticker
// replaces its pointer as the first statement of the callback). Calling
// Cancel on a stale pointer after the engine has reused the struct would
// cancel an unrelated event. A Timer's firing is an Event the Timer owns:
// it never enters the free list.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	afn  func(any)
	arg  any
	// queued reports whether the event is still in a heap (live or lazily
	// cancelled) and far which of the two, so Cancel can count the tombstone
	// against the heap that holds it. canceled survives until the struct is
	// reused so post-run Canceled() reads keep working.
	queued   bool
	far      bool
	canceled bool
	// pos is a Timer firing's index in the engine's timer heap, or -1 while
	// the timer is stopped. Other events never read it.
	pos  int32
	next *Event // free-list link
}

// Time returns the timestamp the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.when }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// slot is one heap entry. The comparison keys are stored by value next to
// each other so sift operations stay inside one dense array and never
// dereference the event until it executes.
type slot struct {
	when Time
	seq  uint64
	ev   *Event
}

func (s slot) less(t slot) bool {
	if s.when != t.when {
		return s.when < t.when
	}
	return s.seq < t.seq // FIFO among simultaneous events
}

// eventQueue is a 4-ary min-heap ordered by (when, seq). 4-ary beats
// binary here: sift-down does one comparison row per cache line of slots
// and the tree is half as deep.
type eventQueue struct {
	heap []slot
	dead int // cancelled events still occupying slots
}

// shrinkMinCap is the capacity below which the queue never reallocates
// downward; above it, a drain to under a quarter of capacity releases the
// backing array so a transient event burst does not pin memory forever.
const shrinkMinCap = 4096

func (q *eventQueue) push(s slot) {
	heap := append(q.heap, s)
	i := len(heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !s.less(heap[p]) {
			break
		}
		heap[i] = heap[p]
		i = p
	}
	heap[i] = s
	q.heap = heap
}

// siftDown restores the heap property for the element at index i, assuming
// both subtrees below it are already heaps.
func siftDown(heap []slot, i int) {
	n := len(heap)
	s := heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if heap[j].less(heap[m]) {
				m = j
			}
		}
		if !heap[m].less(s) {
			break
		}
		heap[i] = heap[m]
		i = m
	}
	heap[i] = s
}

// pop removes and returns the minimum slot's event. The caller must know
// the queue is non-empty.
func (q *eventQueue) pop() *Event {
	heap := q.heap
	ev := heap[0].ev
	n := len(heap) - 1
	heap[0] = heap[n]
	heap[n] = slot{} // release the *Event for GC
	heap = heap[:n]
	if n > 0 {
		siftDown(heap, 0)
	}
	if cap(heap) >= shrinkMinCap && len(heap)*4 <= cap(heap) {
		smaller := make([]slot, len(heap), cap(heap)/2)
		copy(smaller, heap)
		heap = smaller
	}
	q.heap = heap
	return ev
}

// Supervisor is the cross-goroutine control block for a running engine.
// The engine is single-threaded and its methods must never be called from
// outside the run loop; the Supervisor is the one sanctioned side channel.
// A controller goroutine sets Stop to request a cooperative preemption and
// reads Beat to observe liveness: the run loop publishes its executed-event
// counter there every superviseStride events, so a Beat that stops moving
// while a run is in progress means the model code is wedged inside a
// callback (or the run has finished).
//
// Both fields are plain atomics — polling them from the hot loop costs two
// uncontended atomic ops every superviseStride events and zero allocations.
type Supervisor struct {
	// Stop, once true, makes the engine's Run return at the next poll
	// point with the clock held at the last executed event (unlike
	// Engine.Stop, the clock does not advance to the horizon, so a
	// checkpoint captured after the return carries the preemption time).
	Stop atomic.Bool
	// Beat is the engine's executed-event counter, published at every
	// poll point. Monotonically increasing while the run makes progress.
	Beat atomic.Uint64
}

// superviseStride is how many events pass between supervisor polls. At
// ~100ns/event the reaction latency is ~25µs — far below any watchdog
// window — while keeping the common case to one nil check per event.
const superviseStride = 256

// nearWindow splits the events in two: an event due within nearWindow
// seconds of the clock at scheduling time goes to the near heap, anything
// later to the far heap. A PEAS run holds one long event per node (its next
// wake-up) in the far heap and one Timer per node (its battery-depletion
// deadline) in the timer heap, while nearly everything it executes — radio
// deliveries, carrier-sense retries, probe windows — was scheduled
// milliseconds ahead; keeping the long waits out of the heap those events
// sift through makes an event cost what is imminent, not what is deployed.
// The value only moves work between the near and far heaps: execution order
// is the (when, seq) order whatever it is, so it is not configurable.
const nearWindow Time = 1

// Engine is the discrete-event simulator core.
type Engine struct {
	now Time
	seq uint64
	// near, far and timers together hold the schedule; the next event to
	// run is the least of the three heads. A slot stays in the heap it was
	// pushed to. timers is indexed: each entry's event records its slot
	// (Event.pos), so an armed Timer is moved or removed in place.
	near, far, timers eventQueue
	window            Time // nearWindow; equivalence tests force other values
	live              int  // queued events not yet cancelled, plus armed timers
	free              *Event
	executed          uint64
	stopped           bool
	preempted         bool
	super             *Supervisor

	// OnEvent, when set, observes every executed event: it runs with the
	// clock already advanced to the event's time, immediately before the
	// event callback. It must be read-only — scheduling, cancelling or
	// consuming randomness from an observer would perturb the trajectory.
	OnEvent func(t Time)

	// compacted counts compact() passes; cold, read through Stats.
	compacted uint64
}

// NewEngine returns an engine with the clock at zero and an empty schedule.
func NewEngine() *Engine {
	return &Engine{window: nearWindow}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// SetNow moves the clock to t without executing anything. It is the
// restore-side counterpart of a checkpoint: a freshly built engine is
// positioned at the snapshot time before the pending schedule is rebuilt.
// SetNow panics if events are still scheduled or a Timer is armed — moving
// the clock under a live schedule would let events execute in the past.
// Lazily-cancelled events do not count as scheduled; they are drained here.
func (e *Engine) SetNow(t Time) {
	if e.live > 0 {
		panic("sim: SetNow with a non-empty schedule")
	}
	for _, q := range [...]*eventQueue{&e.near, &e.far} {
		for len(q.heap) > 0 {
			e.release(q.pop())
		}
		q.dead = 0
	}
	e.now = t
}

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events still scheduled, each armed Timer
// counting once (cancelled events are removed lazily and never counted).
func (e *Engine) Pending() int { return e.live }

// EngineStats is the engine's own account of the work and memory behind a
// run. Every field belongs to this engine alone, so the figures are exact
// however many engines run beside it in the process.
type EngineStats struct {
	// Events is the number of events executed (Executed).
	Events uint64
	// EventStructs is how many Event structs the engine ever allocated.
	// Between callbacks every struct is either in the near or far heap
	// (live or tombstoned) or on the free list, so it is counted at read
	// time. Timers own their firing and are not counted.
	EventStructs uint64
	// HeapSlots is the capacity of the three heaps' backing arrays: the
	// high-water mark of simultaneously queued events and armed timers,
	// rounded up by append's growth and halved again by a shrink after a
	// drain.
	HeapSlots int
	// NearSlots is the near heap's part of HeapSlots — the slots the
	// imminent events sift through; the rest hold the later events and the
	// armed timers.
	NearSlots int
	// Compactions is how many times cancelled entries came to dominate
	// the near or far heap and were swept out in one pass. Only Cancel
	// leaves tombstones; a re-armed or stopped Timer leaves none.
	Compactions uint64
}

// Stats reads the engine's counters. It walks the free list, so call it
// after a run, not per event; the hot path pays nothing for it.
func (e *Engine) Stats() EngineStats {
	structs := uint64(len(e.near.heap) + len(e.far.heap))
	for ev := e.free; ev != nil; ev = ev.next {
		structs++
	}
	return EngineStats{
		Events:       e.executed,
		EventStructs: structs,
		HeapSlots:    cap(e.near.heap) + cap(e.far.heap) + cap(e.timers.heap),
		NearSlots:    cap(e.near.heap),
		Compactions:  e.compacted,
	}
}

// alloc takes an event off the free list, or grows the pool.
func (e *Engine) alloc() *Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
		ev.canceled = false
	} else {
		ev = new(Event)
	}
	ev.queued = true
	return ev
}

// release clears an event's callback state and returns the struct to the
// free list. The canceled flag is kept until reuse so a holder can still
// observe Canceled() after the run.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.queued = false
	ev.next = e.free
	e.free = ev
}

func (e *Engine) schedule(when Time, fn func(), afn func(any), arg any) *Event {
	if when < e.now {
		when = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.when = when
	ev.seq = e.seq
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	ev.far = when-e.now > e.window
	if ev.far {
		e.far.push(slot{when: when, seq: e.seq, ev: ev})
	} else {
		e.near.push(slot{when: when, seq: e.seq, ev: ev})
	}
	e.live++
	return ev
}

// Schedule runs fn after delay seconds of simulated time. A zero delay runs
// fn after all previously scheduled events at the current instant.
// Negative delays are clamped to zero; model code that needs to detect
// negative delays should validate before calling.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, fn, nil, nil)
}

// At runs fn at the absolute simulation time when. Times in the past are
// clamped to the current instant.
func (e *Engine) At(when Time, fn func()) *Event {
	return e.schedule(when, fn, nil, nil)
}

// AtArg is the allocation-free variant of At: fn is a shared (typically
// package-level) function and arg carries the per-event state, so hot
// paths can schedule pooled argument records instead of fresh closures.
func (e *Engine) AtArg(when Time, fn func(any), arg any) *Event {
	return e.schedule(when, nil, fn, arg)
}

// ScheduleArg is the allocation-free variant of Schedule; see AtArg.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, nil, fn, arg)
}

// Cancel removes ev from the schedule. Cancelling a nil, already-executed,
// or already-cancelled event is a no-op, so model code can cancel
// unconditionally. The callback and its argument are released immediately
// — a cancelled event must not pin captured model state — and the heap
// entry is dropped lazily when it reaches the front of the queue. A
// deadline that moves over and over belongs on a Timer, which re-arms in
// place; Cancel serves Ticker.Stop and one-off cancellations.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	if ev.queued {
		e.live--
		q := &e.near
		if ev.far {
			q = &e.far
		}
		q.dead++
		// Cancelled entries are usually dropped lazily when they surface
		// at the queue head, but a caller that keeps cancelling and
		// re-scheduling far-future events would grow the heap with
		// tombstones that never surface. Compact once they dominate:
		// release their structs and re-heapify the rest. Each heap counts
		// its own, so the far heap's tombstones never re-heapify the near
		// one.
		if q.dead >= 64 && q.dead*2 >= len(q.heap) {
			e.compact(q)
		}
	}
}

// compact removes every cancelled entry from q in one pass and restores
// the heap property bottom-up. Pop order is unaffected: it is determined
// by the strict (when, seq) total order, not the heap layout.
func (e *Engine) compact(q *eventQueue) {
	kept := q.heap[:0]
	for _, s := range q.heap {
		if s.ev.canceled {
			e.release(s.ev)
		} else {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(q.heap); i++ {
		q.heap[i] = slot{}
	}
	q.heap = kept
	q.dead = 0
	e.compacted++
	for i := (len(kept) - 2) >> 2; i >= 0; i-- {
		siftDown(kept, i)
	}
}

// head returns the heap whose head slot is the least under slot.less —
// exactly the head one merged heap would have — or nil when all three are
// empty.
func (e *Engine) head() *eventQueue {
	q := &e.near
	if far := e.far.heap; len(far) > 0 && (len(q.heap) == 0 || far[0].less(q.heap[0])) {
		q = &e.far
	}
	if tm := e.timers.heap; len(tm) > 0 && (len(q.heap) == 0 || tm[0].less(q.heap[0])) {
		q = &e.timers
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q
}

// drop discards the tombstone that has surfaced at q's head.
func (e *Engine) drop(q *eventQueue) {
	e.release(q.pop())
	q.dead--
}

// execute pops q's head, advances the clock to it and runs its callback.
// A Timer's firing leaves the timer heap disarmed before its callback runs,
// so the callback may re-arm it, and never joins the free list.
func (e *Engine) execute(q *eventQueue) {
	timer := q == &e.timers
	var ev *Event
	if timer {
		ev = q.removeAt(0)
	} else {
		ev = q.pop()
	}
	e.live--
	when := ev.when
	e.now = when
	e.executed++
	if e.OnEvent != nil {
		e.OnEvent(when)
	}
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else if ev.fn != nil {
		ev.fn()
	}
	if !timer {
		e.release(ev)
	}
}

// Stop makes the current Run call return after the executing event
// completes. Subsequent Run calls resume from the stop point.
func (e *Engine) Stop() { e.stopped = true }

// Supervise attaches (or, with nil, detaches) a supervisor control block.
// Attach before Run; the engine only reads the pointer from inside the run
// loop.
func (e *Engine) Supervise(s *Supervisor) { e.super = s }

// Preempted reports whether the most recent Run call returned because the
// attached Supervisor requested a stop, rather than by exhausting the
// schedule or reaching the horizon. A preempted engine keeps its clock at
// the last executed event and its pending schedule intact, so the run can
// either be resumed with another Run call or captured as a checkpoint.
func (e *Engine) Preempted() bool { return e.preempted }

// Run executes events in timestamp order until the schedule empties or the
// clock would pass until. On return the clock is at the time of the last
// executed event, or at until if the run was exhausted by the horizon.
func (e *Engine) Run(until Time) {
	e.stopped = false
	e.preempted = false
	for !e.stopped {
		q := e.head()
		if q == nil {
			break
		}
		if q.heap[0].ev.canceled {
			e.drop(q)
			continue
		}
		if q.heap[0].when > until {
			break
		}
		// Polled before the callback, counting the event about to run: a
		// Beat that stops moving then names the event a wedged callback
		// is stuck in.
		if n := e.executed + 1; e.super != nil && n%superviseStride == 0 {
			e.super.Beat.Store(n)
			if e.super.Stop.Load() {
				e.stopped = true
				e.preempted = true
			}
		}
		e.execute(q)
	}
	// A supervisor preemption freezes the clock at the stop point so a
	// checkpoint captured afterwards is stamped with the preemption time;
	// every other early return keeps the legacy advance-to-horizon rule.
	if !e.preempted && e.now < until && until != Forever {
		e.now = until
	}
}

// Step executes exactly one event and reports whether one was available.
func (e *Engine) Step() bool {
	for {
		q := e.head()
		if q == nil {
			return false
		}
		if q.heap[0].ev.canceled {
			e.drop(q)
			continue
		}
		e.execute(q)
		return true
	}
}
