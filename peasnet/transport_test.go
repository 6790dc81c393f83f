package peasnet

import (
	"slices"
	"sync"
	"testing"

	"peas/internal/geom"
)

// judgeRecorder is a FaultInjector that records each judged receiver and
// drops every delivery.
type judgeRecorder struct {
	mu sync.Mutex
	to []int
}

func (r *judgeRecorder) JudgeFrame(from, to int) FaultDecision {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.to = append(r.to, to)
	return FaultDecision{Drop: true}
}

// TestTransportsJudgeReceiversInIDOrder: both transports hand a broadcast's
// receivers to the fault step in ascending id, so a seeded fault injector
// makes its draws in an order the seed fixes, not the map's.
func TestTransportsJudgeReceiversInIDOrder(t *testing.T) {
	const receivers = 24
	for _, tc := range []struct {
		name      string
		transport func() (Transport, error)
	}{
		{"mem", func() (Transport, error) { return NewInMemory(), nil }},
		{"udp", func() (Transport, error) { return NewUDP(nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.transport()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = tr.Close() }()
			pos := func(id int) geom.Point { return geom.Point{X: float64(id % 5), Y: float64(id / 5)} }
			for id := 0; id <= receivers; id++ {
				if err := tr.Register(id, pos(id), func() bool { return true }, func([]byte, float64) {}); err != nil {
					t.Fatal(err)
				}
			}
			rec := &judgeRecorder{}
			tr.SetFaultInjector(rec)
			for from := 0; from < 5; from++ {
				rec.to = nil
				if err := tr.Broadcast(from, pos(from), 100, make([]byte, FrameSize)); err != nil {
					t.Fatal(err)
				}
				if len(rec.to) != receivers || !slices.IsSorted(rec.to) {
					t.Errorf("broadcast from %d judged receivers %v, want all %d in ascending id", from, rec.to, receivers)
				}
			}
		})
	}
}
