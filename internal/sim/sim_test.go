package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// NewTimer returns a stopped timer on e that will invoke fn when it
// fires: a closure timer for tests. The simulator's own timers live inside
// larger records and are built with InitTimer.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{engine: e}
	t.ev.fn = fn
	t.ev.pos = -1
	return t
}

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run(Forever)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
	if e.Executed() != 3 {
		t.Errorf("executed = %d", e.Executed())
	}
}

func TestEngineFIFOAmongSimultaneous(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(10, func() { ran++ })
	e.Run(5)
	if ran != 1 {
		t.Errorf("ran %d events before horizon, want 1", ran)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want horizon 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run(Forever)
	if ran != 2 {
		t.Errorf("resume: ran %d, want 2", ran)
	}
}

// TestTimerStopFromCallback stops a timer from an earlier event's callback:
// it must not fire.
func TestTimerStopFromCallback(t *testing.T) {
	e := NewEngine()
	ran := false
	victim := e.NewTimer(func() { ran = true })
	victim.Reset(2)
	e.Schedule(1, victim.Stop)
	e.Run(Forever)
	if ran || victim.Armed() {
		t.Error("timer stopped mid-run still fired")
	}
}

func TestEngineScheduleFromCallback(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(1, recurse)
	e.Run(Forever)
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run(Forever)
	if ran != 1 {
		t.Errorf("Stop did not halt the run: ran=%d", ran)
	}
	e.Run(Forever)
	if ran != 2 {
		t.Errorf("run did not resume after Stop: ran=%d", ran)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(5, func() {
		e.At(1, func() { at = e.Now() }) // in the past: clamp to now
	})
	e.Run(Forever)
	if at != 5 {
		t.Errorf("past event ran at %v, want clamped to 5", at)
	}
	// Negative delay clamps too.
	e2 := NewEngine()
	ran := false
	e2.Schedule(-3, func() { ran = true })
	e2.Run(Forever)
	if !ran || e2.Now() != 0 {
		t.Error("negative delay should run at time 0")
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatal("first step")
	}
	if !e.Step() || n != 2 {
		t.Fatal("second step")
	}
	if e.Step() {
		t.Fatal("step on empty queue should report false")
	}
}

// TestEngineRandomizedOrdering drives the heap with random timestamps and
// checks global ordering.
func TestEngineRandomizedOrdering(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		const n = 200
		var ran []float64
		for i := 0; i < n; i++ {
			d := rng.Float64() * 100
			e.Schedule(d, func() { ran = append(ran, e.Now()) })
		}
		e.Run(Forever)
		return len(ran) == n && sort.Float64sAreSorted(ran)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// TestEngineCancel withdraws a pending deadline: a stopped timer never
// fires, leaves Pending at once, reads as disarmed, and stopping it again
// is harmless.
func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	timer := e.NewTimer(func() { ran = true })
	timer.Reset(1)
	timer.Stop()
	timer.Stop() // idempotent
	if p := e.Pending(); p != 0 {
		t.Errorf("Pending() = %d after stop, want 0", p)
	}
	e.Run(Forever)
	if ran {
		t.Error("stopped timer fired")
	}
	if timer.Armed() || timer.NextAt() != Forever {
		t.Error("stopped timer still reads as armed")
	}
}

func TestTimer(t *testing.T) {
	e := NewEngine()
	fired := 0
	timer := e.NewTimer(func() { fired++ })
	if timer.Armed() {
		t.Error("fresh timer armed")
	}
	timer.Reset(5)
	if !timer.Armed() {
		t.Error("timer should be armed")
	}
	timer.Reset(2) // re-arm replaces the pending firing
	e.Run(10)
	if fired != 1 {
		t.Errorf("fired %d times, want 1", fired)
	}
	if e.Now() != 10 {
		t.Errorf("clock %v", e.Now())
	}

	timer.Reset(1)
	timer.Stop()
	timer.Stop() // idempotent
	e.Run(20)
	if fired != 1 {
		t.Errorf("stopped timer fired; total %d", fired)
	}
}

// TestTimerRearmsInPlace pins what a Timer is for: a deadline re-armed a
// thousand times, earlier and later, is one armed entry — counted once in
// Pending, no event record, nothing left behind — and fires once,
// at its last deadline, counted as one executed event. ResetAt clamps a
// past deadline to now, and SetNow refuses to move the clock under an
// armed timer.
func TestTimerRearmsInPlace(t *testing.T) {
	e := NewEngine()
	var firedAt []Time
	timer := e.NewTimer(func() { firedAt = append(firedAt, e.Now()) })
	if timer.NextAt() != Forever {
		t.Fatalf("stopped timer NextAt = %v, want Forever", timer.NextAt())
	}
	e.At(1, func() {})
	for i := 0; i < 1000; i++ {
		timer.ResetAt(1e6 + float64((i*7919)%1000))
	}
	timer.ResetAt(50)
	if s := e.Stats(); e.Pending() != 2 || s.EventStructs != 1 || len(e.timers.heap) != 1 {
		t.Fatalf("after 1001 re-arms: pending %d, %+v, %d timer slots; want 2 pending, 1 struct, 1 slot",
			e.Pending(), s, len(e.timers.heap))
	}
	if timer.NextAt() != 50 {
		t.Fatalf("NextAt = %v, want 50", timer.NextAt())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetNow with an armed timer did not panic")
			}
		}()
		e.SetNow(0)
	}()
	e.Run(Forever)
	if len(firedAt) != 1 || firedAt[0] != 50 || e.Executed() != 2 || e.Pending() != 0 {
		t.Fatalf("fired at %v, executed %d, pending %d; want one firing at 50 of 2 events, none pending",
			firedAt, e.Executed(), e.Pending())
	}
	timer.ResetAt(10) // in the past now
	if timer.NextAt() != 50 {
		t.Fatalf("a past deadline re-armed at %v, want clamped to now 50", timer.NextAt())
	}
	timer.Stop()
	e.SetNow(0)
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	ticks := 0
	ticker := e.NewTicker(10, func() { ticks++ })
	e.Run(55)
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if ticker.NextAt() != 60 {
		t.Errorf("NextAt = %v, want 60", ticker.NextAt())
	}
	ticker.Stop()
	ticker.Stop()
	if ticker.NextAt() != Forever || e.Pending() != 0 {
		t.Errorf("stopped ticker: NextAt %v, %d pending", ticker.NextAt(), e.Pending())
	}
	e.Run(200)
	if ticks != 5 {
		t.Errorf("ticker kept firing after Stop: %d", ticks)
	}
}
