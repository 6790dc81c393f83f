package node

import (
	"runtime"
	"testing"
)

// End-to-end microbenchmark: a full PEAS network built, simulated for a
// fixed horizon and released. Run with
//
//	go test ./internal/node -run=NONE -bench=. -benchmem
//
// Every iteration after the first rebuilds into the storage the one
// before released, so a warm iteration allocates nothing: construction
// reuses the workspace, and the event loop itself allocates nothing
// (TestEventLoopDoesNotAllocate).

func benchNetwork(b *testing.B, n int, horizon float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(DefaultConfig(n, 7))
		if err != nil {
			b.Fatal(err)
		}
		net.Start()
		net.Run(horizon)
		net.Release()
	}
}

func BenchmarkNetwork80(b *testing.B)  { benchNetwork(b, 80, 600) }
func BenchmarkNetwork320(b *testing.B) { benchNetwork(b, 320, 600) }

// TestEventLoopDoesNotAllocate pins the event loop's steady state: once a
// 160-node network has booted and run to t = 1000 s, running it on to
// 3000 s allocates only what a pool needs to pass its high-water mark. The
// engine's events and timer heap, the medium's frames and delivery records
// and every node's probe-window REPLY list are already at working size by
// then. What is left, exactly, on amd64:
//
//   - one *core.Reply record and the growth of the network's spare-record
//     list, the first time more REPLYs are in flight at once than before
//     t = 1000 s;
//   - one protocol timer record, for a node that first has more timers
//     pending at once than before.
//
// The run is deterministic, so the count is exact on the architecture the
// golden hashes are pinned on; elsewhere the trajectory, and with it the
// high-water marks, may differ slightly. AllocsPerRun's warm-up call is
// the run to 1000 s.
func TestEventLoopDoesNotAllocate(t *testing.T) {
	const want = 3
	net, err := NewNetwork(DefaultConfig(160, 1))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	horizons := []float64{1000, 3000}
	k := 0
	runtime.GC() // no collection cycle started by earlier tests overlaps the count
	allocs := testing.AllocsPerRun(1, func() {
		net.Run(horizons[k])
		k++
	})
	if k != 2 || net.Engine.Now() != 3000 {
		t.Fatalf("ran %d segments to t=%v, want the warm-up and the measured run to 3000", k, net.Engine.Now())
	}
	if runtime.GOARCH != "amd64" {
		if allocs > 2*want {
			t.Fatalf("running from t=1000 to 3000 allocated %v heap objects, want about %d", allocs, want)
		}
		return
	}
	if allocs != want {
		t.Fatalf("running from t=1000 to 3000 allocated %v heap objects, want exactly %d", allocs, want)
	}
}
