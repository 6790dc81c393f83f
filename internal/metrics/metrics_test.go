package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("test")
	if s.Name() != "test" || s.Len() != 0 {
		t.Fatal("fresh series")
	}
	s.Record(1, 10)
	s.Record(2, 20)
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	pts := s.Points()
	if len(pts) != 2 || pts[1] != (Point{T: 2, V: 20}) {
		t.Errorf("points = %+v", pts)
	}
	pts[0].V = 999
	if s.Points()[0].V == 999 {
		t.Error("Points aliased internal storage")
	}
}

func TestSeriesFirstBelow(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{1, 0.95, 0.85, 0.95, 0.85, 0.85, 0.85} {
		s.Record(float64(i), v)
	}
	tests := []struct {
		threshold float64
		sustain   int
		want      float64
		dropped   bool
	}{
		{0.9, 1, 2, true},
		{0.9, 2, 4, true},
		{0.9, 3, 4, true},
		{0.5, 1, 6, false}, // never below 0.5
		{0.9, 0, 2, true},  // sustain clamps to 1
	}
	for _, tc := range tests {
		got, dropped := s.FirstBelow(tc.threshold, tc.sustain)
		if got != tc.want || dropped != tc.dropped {
			t.Errorf("FirstBelow(%v, %d) = (%v, %v), want (%v, %v)",
				tc.threshold, tc.sustain, got, dropped, tc.want, tc.dropped)
		}
	}
	empty := NewSeries("e")
	if _, dropped := empty.FirstBelow(1, 1); dropped {
		t.Error("empty series reported a drop")
	}
}

func TestSeriesMeanAfter(t *testing.T) {
	s := NewSeries("x")
	s.Record(0, 100) // boot transient, excluded
	s.Record(300, 10)
	s.Record(400, 20)
	if got := s.MeanAfter(300); got != 15 {
		t.Errorf("MeanAfter = %v, want 15", got)
	}
	if got := s.MeanAfter(1000); got != 0 {
		t.Errorf("MeanAfter beyond series = %v", got)
	}
}

func TestRatio(t *testing.T) {
	r := NewRatio("delivery")
	if r.Value() != 1 {
		t.Error("empty ratio should be 1")
	}
	r.Observe(10, true)
	r.Observe(20, true)
	r.Observe(30, false)
	if math.Abs(r.Value()-2.0/3) > 1e-12 {
		t.Errorf("ratio = %v", r.Value())
	}
	gen, succ := r.Counts()
	if gen != 3 || succ != 2 {
		t.Errorf("counts = %d/%d", succ, gen)
	}
	if r.Series().Len() != 3 {
		t.Errorf("series len = %d", r.Series().Len())
	}
	// The cumulative series records the running ratio.
	pts := r.Series().Points()
	if pts[0].V != 1 || pts[1].V != 1 || math.Abs(pts[2].V-2.0/3) > 1e-12 {
		t.Errorf("series = %+v", pts)
	}
}

func TestRatioLifetimeSemantics(t *testing.T) {
	// The paper's delivery lifetime: cumulative ratio crosses 90%.
	r := NewRatio("d")
	for i := 0; i < 100; i++ {
		r.Observe(float64(i), true)
	}
	// Failures begin: the cumulative ratio decays slowly.
	for i := 100; i < 200; i++ {
		r.Observe(float64(i), false)
	}
	lt, dropped := r.Series().FirstBelow(0.9, 1)
	if !dropped {
		t.Fatal("ratio should cross 90%")
	}
	// 100 successes / (100 + n) < 0.9 at n = 12 -> t = 111.
	if lt != 111 {
		t.Errorf("lifetime = %v, want 111", lt)
	}
}

// TestCountersConcurrent hammers one Counters value from many goroutines,
// mixing writers with readers of every accessor. The simulation service
// shares a single counter set across its worker pool, so this must hold
// under -race and the totals must come out exact.
func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	const (
		writers   = 8
		perWriter = 2000
	)
	names := []string{"alpha", "beta", "gamma", "delta"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(names[(w+i)%len(names)], 1)
			}
		}(w)
	}
	// Concurrent readers exercise Get, Names and Snapshot while writes
	// are in flight.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = c.Get("alpha")
				_ = c.Names()
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	var total uint64
	for _, name := range c.Names() {
		total += c.Get(name)
	}
	if want := uint64(writers * perWriter); total != want {
		t.Fatalf("lost updates: total = %d, want %d", total, want)
	}
	if got := len(c.Names()); got != len(names) {
		t.Fatalf("names = %d, want %d", got, len(names))
	}
}
