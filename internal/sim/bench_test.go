package sim

import "testing"

// Microbenchmarks for the event-engine hot path. Run with
//
//	go test ./internal/sim -run=NONE -bench=. -benchmem
//
// The Arg variants must report 0 allocs/op in steady state; the closure
// variants pay one allocation per closure and exist for cold paths.

func BenchmarkScheduleRunClosure(b *testing.B) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Run(e.Now() + 2)
	}
}

func BenchmarkScheduleRunArg(b *testing.B) {
	e := NewEngine()
	n := 0
	fn := func(any) { n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(1, fn, nil)
		e.Run(e.Now() + 2)
	}
}

// BenchmarkQueueChurn keeps a deep queue (1024 pending events) while
// scheduling and executing, exercising full-depth heap sifts.
func BenchmarkQueueChurn(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 1024; i++ {
		e.ScheduleArg(float64(i+1), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(1025, fn, nil)
		e.Step()
	}
}

// BenchmarkQueueNearFar is the shape of a PEAS run at N = 1600: one long
// wait per node (its next wake-up) parked in the far heap while what runs
// was scheduled milliseconds ahead. Each iteration opens a 100 ms probe
// window and sends two 10 ms deliveries that land in front of the window
// ends already waiting, so the near run takes one append and two shifting
// insertions; BenchmarkQueueChurn above is the same churn through one deep
// heap.
func BenchmarkQueueNearFar(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 1600; i++ {
		e.AtArg(1e9+float64(i), fn, nil)
	}
	nearFar := func() {
		e.ScheduleArg(0.1, fn, nil)
		e.ScheduleArg(0.01, fn, nil)
		e.ScheduleArg(0.01, fn, nil)
		e.Step()
		e.Step()
		e.Step()
	}
	for i := 0; i < 100; i++ {
		nearFar()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearFar()
	}
}

// BenchmarkQueueNearSpill holds 2·maxShift window ends in the near run and
// lands every delivery in front of all of them, so each one is refused by
// the run and waits in the far heap beside 1600 parked wake-ups.
func BenchmarkQueueNearSpill(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 1600; i++ {
		e.AtArg(1e9+float64(i), fn, nil)
	}
	for i := 0; i < 2*maxShift; i++ {
		e.ScheduleArg(0.5+float64(i)*0.001, fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(0, fn, nil)
		e.Step()
	}
	if e.near.spills < uint64(b.N) {
		b.Fatalf("%d spills in %d iterations", e.near.spills, b.N)
	}
}

// BenchmarkTimerRearm models the battery-depletion pattern of an N = 800
// run: one far-future deadline per node, moved in place in the engine's
// indexed timer heap. A working node's every transmit charge brings its
// deadline a little earlier; going to sleep moves it far later once. Each
// node here takes seven charges and one sleep in turn, so the heap sees
// mostly short sifts up and the odd long sift down.
func BenchmarkTimerRearm(b *testing.B) {
	e := NewEngine()
	timers := make([]*Timer, 800)
	deadline := make([]Time, len(timers))
	for i := range timers {
		timers[i] = e.NewTimer(func() {})
		deadline[i] = 1e9 + float64(i)
		timers[i].ResetAt(deadline[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i / 8 * 7919) % len(timers)
		if i%8 < 7 {
			deadline[k] -= 1.5
		} else {
			deadline[k] += 400
		}
		timers[k].ResetAt(deadline[k])
	}
}

func BenchmarkTicker(b *testing.B) {
	e := NewEngine()
	n := 0
	tk := e.NewTicker(1, func() { n++ })
	defer tk.Stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
