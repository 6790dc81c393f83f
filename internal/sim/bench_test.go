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
// wait per node (its next wake-up) parked in the far heap while every
// executed event was scheduled 10 ms ahead. The sift each pop pays is the
// near heap's, not the deployment's; BenchmarkQueueChurn above is the same
// churn through one deep heap.
func BenchmarkQueueNearFar(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 1600; i++ {
		e.AtArg(1e9+float64(i), fn, nil)
	}
	for i := 0; i < 8; i++ {
		e.ScheduleArg(0.001*float64(i+1), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(0.01, fn, nil)
		e.Step()
	}
}

// BenchmarkTimerRearm models the battery-depletion pattern of an N = 800
// run: one far-future deadline per node, one of which moves on every
// charged packet. A re-arm moves the timer in place in the engine's
// indexed timer heap, leaving no tombstone behind for a compaction to
// sweep.
func BenchmarkTimerRearm(b *testing.B) {
	e := NewEngine()
	timers := make([]*Timer, 800)
	for i := range timers {
		timers[i] = e.NewTimer(func() {})
		timers[i].ResetAt(1e9 + float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers[i%len(timers)].ResetAt(1e9 + float64(i%997))
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
