// Package sim implements the deterministic discrete-event engine the PEAS
// evaluation runs on. The paper used PARSEC; this engine provides the same
// facilities — a virtual clock, scheduled callbacks, and restartable timers
// — with exact reproducibility: a run is a pure function of the initial
// schedule and the RNG seeds used by the model code.
//
// The engine is single-threaded. Model code runs inside event callbacks and
// must not retain the engine across goroutines.
//
// The scheduler is built for an allocation-free hot path: events live in a
// free list and are reused, and the schedule is three concrete queues over
// small value slots (no container/heap interface boxing): a sorted run of
// imminent events, a 4-ary min-heap of later ones, see nearWindow, and an
// indexed 4-ary heap of armed Timers and Tickers, whose deadlines move in
// place when they are re-armed (see timer.go). The AtArg/ScheduleArg
// variants let callers schedule a shared callback with a pooled argument
// record instead of a fresh closure. Execution order is exactly the classic
// (when, seq) order: strictly increasing timestamps, FIFO among simultaneous
// events, whichever queue an entry waits in.
package sim

import (
	"math"
	"sync/atomic"
)

// Time is a simulation timestamp in seconds since the start of the run.
type Time = float64

// Forever is a timestamp later than any event the engine will execute.
const Forever Time = math.MaxFloat64

// event is a scheduled callback. Events scheduled through At, Schedule and
// their Arg variants are recycled through the engine's free list once they
// have run; a Timer owns its firing's event, which never enters the list.
type event struct {
	fn  func()
	afn func(any)
	arg any
	// pos is a Timer firing's index in the engine's timer heap, or -1 while
	// the timer is stopped. Other events never read it.
	pos  int32
	next *event // free-list link
}

// slot is one queue entry. The comparison keys are stored by value next to
// each other so sifts and shifts stay inside one dense array and never
// dereference the event until it executes.
type slot struct {
	when Time
	seq  uint64
	ev   *event
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
}

// shrinkMinCap is the capacity below which a queue never reallocates
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

// pop removes and returns the minimum slot. The caller must know the queue
// is non-empty.
func (q *eventQueue) pop() slot {
	heap := q.heap
	s := heap[0]
	n := len(heap) - 1
	heap[0] = heap[n]
	heap[n] = slot{} // release the *event for GC
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
	return s
}

// nearRun holds the imminent events as a run sorted by (when, seq): the
// live slots are s[h:], least first, and s[:h] are slots already popped.
// Nearly every imminent event lands at or near the tail — a delivery is due
// one airtime ahead, behind the probe-window ends already waiting — so an
// insertion shifts a slot or two and a pop is an index increment, where a
// heap sifts both ways.
type nearRun struct {
	s []slot
	h int
	// spills counts the insertions push refused (see maxShift), and
	// reclaims how often it slid the live slots down over the popped head;
	// cold, read by tests.
	spills, reclaims uint64
}

// maxShift bounds the slots an insertion into the near run may shift. An
// event that would have to pass more of them waits in the far heap instead,
// so a schedule that keeps landing in front of a deep run costs a heap push,
// never a long copy.
const maxShift = 16

// push inserts x in order and reports whether it did; false means x would
// have had to shift more than maxShift slots and was left to the caller.
func (r *nearRun) push(x slot) bool {
	s, n := r.s, len(r.s)
	// A full array whose popped head is at least half of it is slid down
	// rather than grown: it grows only while more than half of it is live,
	// so a run that never quite empties keeps an array within about four
	// times its deepest point.
	if n == cap(s) && r.h > 0 && 2*r.h >= n {
		n = copy(s, s[r.h:])
		r.h = 0
		r.reclaims++
	}
	s = append(s[:n], x)
	i := n
	for i > r.h && x.less(s[i-1]) {
		if n-i == maxShift {
			// Slide the shifted slots back and leave x to the caller.
			copy(s[i:n], s[i+1:])
			r.s = s[:n]
			r.spills++
			return false
		}
		s[i] = s[i-1]
		i--
	}
	s[i] = x
	r.s = s
	return true
}

// pop removes and returns the least slot. The caller must know the run is
// non-empty. Popped slots keep their *event: every event belongs to the
// engine's pool for the engine's life, so a stale pointer pins nothing.
func (r *nearRun) pop() slot {
	x := r.s[r.h]
	r.h++
	if r.h == len(r.s) {
		r.s, r.h = r.s[:0], 0
	}
	if cap(r.s) >= shrinkMinCap && (len(r.s)-r.h)*4 <= cap(r.s) {
		smaller := make([]slot, len(r.s)-r.h, cap(r.s)/2)
		copy(smaller, r.s[r.h:])
		r.s, r.h = smaller, 0
	}
	return x
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
// seconds of the clock at scheduling time goes to the near run, anything
// later to the far heap. A PEAS run holds one long event per node (its next
// wake-up) in the far heap and one Timer per node (its battery-depletion
// deadline) in the timer heap, while nearly everything it executes — radio
// deliveries, carrier-sense retries, probe windows — was scheduled
// milliseconds ahead; keeping the long waits out of the run those events
// are inserted into makes an event cost what is imminent, not what is
// deployed. The value only moves work between the near run and the far
// heap: execution order is the (when, seq) order whatever it is, so it is
// not configurable.
const nearWindow Time = 1

// Engine is the discrete-event simulator core.
type Engine struct {
	now Time
	seq uint64
	// near, far and timers together hold the schedule; the next event to
	// run is the least of the three heads. A slot stays in the queue it was
	// pushed to. timers is indexed: each entry's event records its slot
	// (event.pos), so an armed Timer is moved or removed in place.
	near      nearRun
	far       eventQueue
	timers    eventQueue
	window    Time // nearWindow; equivalence tests force other values
	free      *event
	executed  uint64
	stopped   bool
	preempted bool
	super     *Supervisor

	// OnEvent, when set, observes every executed event: it runs with the
	// clock already advanced to the event's time, immediately before the
	// event callback. It must be read-only — scheduling, re-arming or
	// consuming randomness from an observer would perturb the trajectory.
	OnEvent func(t Time)
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
func (e *Engine) SetNow(t Time) {
	if e.Pending() > 0 {
		panic("sim: SetNow with a non-empty schedule")
	}
	e.now = t
}

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events still scheduled, each armed Timer
// or Ticker counting once.
func (e *Engine) Pending() int {
	return len(e.near.s) - e.near.h + len(e.far.heap) + len(e.timers.heap)
}

// EngineStats is the engine's own account of the work and memory behind a
// run. Every field belongs to this engine alone, so the figures are exact
// however many engines run beside it in the process.
type EngineStats struct {
	// Events is the number of events executed (Executed).
	Events uint64
	// EventStructs is how many event records the engine ever allocated.
	// Between callbacks every record is either waiting in the near run or
	// the far heap or on the free list, so it is counted at read time.
	// Timers and Tickers own their firing and are not counted.
	EventStructs uint64
	// HeapSlots is the capacity of the three queues' backing arrays: the
	// high-water mark of simultaneously queued events and armed timers,
	// rounded up by append's growth and halved again by a shrink after a
	// drain.
	HeapSlots int
	// NearSlots is the near run's part of HeapSlots — the slots the
	// imminent events are inserted into; the rest hold the later events
	// and the armed timers.
	NearSlots int
}

// Stats reads the engine's counters. It walks the free list, so call it
// after a run, not per event; the hot path pays nothing for it.
func (e *Engine) Stats() EngineStats {
	structs := uint64(len(e.near.s) - e.near.h + len(e.far.heap))
	for ev := e.free; ev != nil; ev = ev.next {
		structs++
	}
	return EngineStats{
		Events:       e.executed,
		EventStructs: structs,
		HeapSlots:    cap(e.near.s) + cap(e.far.heap) + cap(e.timers.heap),
		NearSlots:    cap(e.near.s),
	}
}

func (e *Engine) schedule(when Time, fn func(), afn func(any), arg any) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
	} else {
		ev = new(event)
	}
	ev.fn, ev.afn, ev.arg = fn, afn, arg
	s := slot{when: when, seq: e.seq, ev: ev}
	if when-e.now > e.window {
		e.far.push(s)
	} else if !e.near.push(s) {
		e.far.push(s)
	}
}

// Schedule runs fn after delay seconds of simulated time. A zero delay runs
// fn after all previously scheduled events at the current instant.
// Negative delays are clamped to zero; model code that needs to detect
// negative delays should validate before calling.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(e.now+delay, fn, nil, nil)
}

// At runs fn at the absolute simulation time when. Times in the past are
// clamped to the current instant.
func (e *Engine) At(when Time, fn func()) {
	e.schedule(when, fn, nil, nil)
}

// AtArg is the allocation-free variant of At: fn is a shared (typically
// package-level) function and arg carries the per-event state, so hot
// paths can schedule pooled argument records instead of fresh closures.
func (e *Engine) AtArg(when Time, fn func(any), arg any) {
	e.schedule(when, nil, fn, arg)
}

// ScheduleArg is the allocation-free variant of Schedule; see AtArg.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(e.now+delay, nil, fn, arg)
}

// The three queues a head can come from.
const (
	inNear = iota
	inFar
	inTimers
)

// head returns the least of the three queues' head slots under slot.less —
// exactly the head one merged queue would have — and which queue holds it,
// or nil when all three are empty.
func (e *Engine) head() (*slot, int) {
	var h *slot
	from := inNear
	if r := &e.near; r.h < len(r.s) {
		h = &r.s[r.h]
	}
	if far := e.far.heap; len(far) > 0 && (h == nil || far[0].less(*h)) {
		h, from = &far[0], inFar
	}
	if tm := e.timers.heap; len(tm) > 0 && (h == nil || tm[0].less(*h)) {
		h, from = &tm[0], inTimers
	}
	return h, from
}

// execute pops the head of the queue from names, advances the clock to it
// and runs its callback. A Timer's firing leaves the timer heap disarmed
// before its callback runs, so the callback may re-arm it, and never joins
// the free list.
func (e *Engine) execute(from int) {
	var s slot
	switch from {
	case inNear:
		s = e.near.pop()
	case inFar:
		s = e.far.pop()
	default:
		s = e.timers.heap[0]
		e.timers.removeAt(0)
	}
	ev := s.ev
	e.now = s.when
	e.executed++
	if e.OnEvent != nil {
		e.OnEvent(s.when)
	}
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else if ev.fn != nil {
		ev.fn()
	}
	if from != inTimers {
		// Clear the callback state so a recycled record pins nothing.
		ev.fn, ev.afn, ev.arg = nil, nil, nil
		ev.next = e.free
		e.free = ev
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
		h, from := e.head()
		if h == nil || h.when > until {
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
		e.execute(from)
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
	h, from := e.head()
	if h == nil {
		return false
	}
	e.execute(from)
	return true
}
