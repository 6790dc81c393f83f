package sim

// Timer is a restartable single-shot timer bound to an Engine: the
// engine's deadline that moves. It mirrors the shape of time.Timer so
// protocol code reads naturally in both the simulator and the live runtime.
//
// An armed timer waits in the engine's own indexed heap, where re-arming
// moves it in place and stopping removes it at once: nothing is left
// behind and nothing is allocated. Its ordering is an ordinary event's —
// every arming consumes one sequence number, exactly as scheduling a fresh
// event would — and a firing is an executed event like any other: it
// counts in Executed, is seen by OnEvent and by the supervisor poll, and an
// armed timer counts once in Pending.
type Timer struct {
	engine *Engine
	ev     event // the firing's callback; ev.pos is its heap index
}

// InitTimer makes *t a stopped timer on e that will invoke fn(arg) when it
// fires. A timer lives inside a larger record and takes a shared callback
// instead of a closure, so building one allocates nothing. t must not be
// armed.
func (e *Engine) InitTimer(t *Timer, fn func(any), arg any) {
	*t = Timer{engine: e}
	t.ev.afn, t.ev.arg = fn, arg
	t.ev.pos = -1
}

// Reset (re)arms the timer to fire after delay; a negative delay is
// clamped to zero. At most one firing is pending at a time.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.engine.now + delay)
}

// ResetAt (re)arms the timer to fire at the absolute time when; a time in
// the past is clamped to the current instant. Restores use it to re-arm a
// recorded deadline exactly: now+(when-now) need not round back to when.
//
// A re-arm sifts only the way the key moved: up when the new (when, seq)
// precedes the old one, down otherwise. The old key was in order with its
// parent and its children, so a key that moved earlier can only precede an
// ancestor and one that moved later only follow a descendant.
func (t *Timer) ResetAt(when Time) {
	e := t.engine
	if when < e.now {
		when = e.now
	}
	e.seq++
	s := slot{when: when, seq: e.seq, ev: &t.ev}
	q := &e.timers
	i := int(t.ev.pos)
	switch {
	case i < 0:
		q.heap = append(q.heap, s)
		if len(q.heap) > q.peak {
			q.peak = len(q.heap)
		}
		q.up(len(q.heap)-1, s)
	case s.less(q.heap[i]):
		q.up(i, s)
	default:
		q.down(i, s)
	}
}

// Stop disarms the timer. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() {
	if t.ev.pos >= 0 {
		t.engine.timers.removeAt(int(t.ev.pos))
	}
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.ev.pos >= 0 }

// NextAt returns the absolute time of the pending firing, or Forever when
// the timer is stopped. Checkpoints record it to re-arm the deadline.
func (t *Timer) NextAt() Time {
	if t.ev.pos < 0 {
		return Forever
	}
	return t.engine.timers.heap[t.ev.pos].when
}

// The timer heap is an eventQueue whose slots keep their own index in
// ev.pos: every write of a slot goes through place, so a timer can be found
// in its heap without a search.

func (q *eventQueue) place(i int, s slot) {
	q.heap[i] = s
	s.ev.pos = int32(i)
}

// up places s, bound for index i, after moving down every ancestor it
// precedes.
func (q *eventQueue) up(i int, s slot) {
	for i > 0 {
		p := (i - 1) >> 2
		if !s.less(q.heap[p]) {
			break
		}
		q.place(i, q.heap[p])
		i = p
	}
	q.place(i, s)
}

// down places s, bound for index i, after moving up every least child it
// follows.
func (q *eventQueue) down(i int, s slot) {
	heap := q.heap
	n := len(heap)
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
		q.place(i, heap[m])
		i = m
	}
	q.place(i, s)
}

// removeAt takes the slot at index i out of the heap and marks its timer
// stopped. The last slot fills the hole and may belong above or below it,
// so it is sifted whichever way it has to go.
func (q *eventQueue) removeAt(i int) {
	q.heap[i].ev.pos = -1
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = slot{}
	q.heap = q.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.less(q.heap[(i-1)>>2]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// Ticker repeatedly invokes a callback at a fixed period until stopped. It
// is a Timer that re-arms itself one period ahead before each call, so it
// waits in the timer heap and a stop removes it at once.
type Ticker struct {
	timer  Timer
	period Time
	fn     func()
}

// tickerTick is the shared per-tick callback for every Ticker; it re-arms
// before invoking the user callback so the callback sees NextAt() of the
// following tick, and consumes no allocations per tick.
func tickerTick(a any) {
	t := a.(*Ticker)
	t.timer.Reset(t.period)
	t.fn()
}

func (e *Engine) newTicker(period Time, fn func()) *Ticker {
	t := &Ticker{timer: Timer{engine: e}, period: period, fn: fn}
	t.timer.ev.afn, t.timer.ev.arg = tickerTick, t
	t.timer.ev.pos = -1
	return t
}

// NewTicker returns a started ticker that calls fn every period seconds,
// with the first call after one full period.
func (e *Engine) NewTicker(period Time, fn func()) *Ticker {
	t := e.newTicker(period, fn)
	t.timer.Reset(period)
	return t
}

// NewTickerAt returns a started ticker whose first call happens at the
// absolute time first, then every period seconds after. Restoring a
// checkpoint uses it to re-arm a periodic activity at the exact phase it
// had when the snapshot was taken.
func (e *Engine) NewTickerAt(first, period Time, fn func()) *Ticker {
	t := e.newTicker(period, fn)
	t.timer.ResetAt(first)
	return t
}

// NextAt returns the absolute time of the next tick, or Forever when the
// ticker is stopped. Checkpoints record it to preserve the tick phase.
func (t *Ticker) NextAt() Time { return t.timer.NextAt() }

// Stop halts future ticks. Stop is idempotent.
func (t *Ticker) Stop() { t.timer.Stop() }
