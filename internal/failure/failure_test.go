package failure

import (
	"math"
	"testing"

	"peas/internal/core"
	"peas/internal/node"
	"peas/internal/stats"
)

func TestRateConversion(t *testing.T) {
	if got := RatePer5000s(10.66); math.Abs(got-10.66/5000) > 1e-15 {
		t.Errorf("rate = %v", got)
	}
}

func testNetwork(t *testing.T, n int) *node.Network {
	t.Helper()
	net, err := node.NewNetwork(node.DefaultConfig(n, 33))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestInjectorKillsAtConfiguredRate(t *testing.T) {
	net := testNetwork(t, 100)
	// 20 failures per 5000 s over 5000 s: expect ≈ 20 failures.
	inj := NewInjector(net, RatePer5000s(20), stats.NewRNG(5))
	net.Start()
	inj.Start()
	net.Run(5000)
	got := inj.Injected()
	if got < 8 || got > 35 {
		t.Errorf("injected %d failures, want ≈ 20", got)
	}
	if len(inj.Victims()) != got {
		t.Errorf("victims %d != injected %d", len(inj.Victims()), got)
	}
	// Victims are actually dead.
	for _, id := range inj.Victims() {
		if net.Nodes[id].Alive() {
			t.Errorf("victim %d still alive", id)
		}
		diedAt, cause := net.Nodes[id].DiedAt()
		if cause != node.InjectedFailure {
			t.Errorf("victim %d cause = %v at %v", id, cause, diedAt)
		}
	}
}

func TestZeroRateInjectsNothing(t *testing.T) {
	net := testNetwork(t, 20)
	inj := NewInjector(net, 0, stats.NewRNG(1))
	net.Start()
	inj.Start()
	net.Run(2000)
	if inj.Injected() != 0 {
		t.Errorf("injected %d with zero rate", inj.Injected())
	}
}

func TestInjectorStop(t *testing.T) {
	net := testNetwork(t, 50)
	inj := NewInjector(net, RatePer5000s(5000), stats.NewRNG(2)) // 1/s
	net.Start()
	inj.Start()
	net.Run(10)
	count := inj.Injected()
	if count == 0 {
		t.Fatal("no failures before stop")
	}
	inj.Stop()
	net.Run(100)
	if inj.Injected() != count {
		t.Errorf("failures continued after Stop: %d -> %d", count, inj.Injected())
	}
}

func TestInjectorExhaustsNetwork(t *testing.T) {
	net := testNetwork(t, 10)
	inj := NewInjector(net, 10 /* 10 per second */, stats.NewRNG(3))
	net.Start()
	inj.Start()
	net.Run(100)
	if alive := net.AliveCount(); alive != 0 {
		t.Errorf("%d nodes still alive under extreme failure rate", alive)
	}
	if inj.Injected() != 10 {
		t.Errorf("injected = %d, want all 10", inj.Injected())
	}
}

// TestInterFailureGapsAreExponential checks the §5.2 arrival process
// statistically: with a strike that only records, observed inter-failure
// gaps at rate λ=1/s must have mean ≈ 1/λ and coefficient of variation
// ≈ 1 — the exponential signature (a periodic process would show CV ≈ 0,
// a clustered one CV ≫ 1).
func TestInterFailureGapsAreExponential(t *testing.T) {
	net := testNetwork(t, 100)
	var times []float64
	inj := NewInjectorWith(net, 1.0, stats.NewRNG(7), nil, func(*node.Node) {
		times = append(times, net.Engine.Now())
	})
	net.Start()
	inj.Start()
	net.Run(1000)

	if len(times) < 800 {
		t.Fatalf("only %d arrivals in 1000 s at 1/s", len(times))
	}
	var sum, sumSq float64
	n := len(times) - 1
	for i := 1; i < len(times); i++ {
		g := times[i] - times[i-1]
		sum += g
		sumSq += g * g
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	cv := math.Sqrt(variance) / mean
	if mean < 0.85 || mean > 1.15 {
		t.Errorf("mean inter-failure gap %.3f s, want ≈ 1.0", mean)
	}
	if cv < 0.85 || cv > 1.15 {
		t.Errorf("gap CV %.3f, want ≈ 1 (exponential)", cv)
	}
}

// TestVictimsUniformOverAliveNodes draws ~2000 victims over 100 nodes
// with a strike that only records, and checks the victim histogram is
// consistent with uniform selection: essentially every node is drawn,
// and no node is drawn wildly more often than the mean.
func TestVictimsUniformOverAliveNodes(t *testing.T) {
	net := testNetwork(t, 100)
	// A strike that leaves the victim alive: the pool never thins.
	inj := NewInjectorWith(net, 2.0, stats.NewRNG(8), nil, func(*node.Node) {})
	net.Start()
	inj.Start()
	net.Run(1000)

	victims := inj.Victims()
	if len(victims) < 1600 {
		t.Fatalf("only %d strikes", len(victims))
	}
	counts := make(map[core.NodeID]int)
	for _, id := range victims {
		counts[id]++
	}
	if len(counts) < 95 {
		t.Errorf("only %d of 100 nodes ever struck; selection not uniform", len(counts))
	}
	mean := float64(len(victims)) / 100
	for id, c := range counts {
		if float64(c) > 2.5*mean {
			t.Errorf("node %d struck %d times (mean %.1f); selection not uniform", id, c, mean)
		}
	}
}

func TestVictimsCopy(t *testing.T) {
	net := testNetwork(t, 10)
	inj := NewInjector(net, 1, stats.NewRNG(4))
	net.Start()
	inj.Start()
	net.Run(5)
	v := inj.Victims()
	if len(v) == 0 {
		t.Skip("no victims drawn")
	}
	v[0] = -99
	if inj.Victims()[0] == -99 {
		t.Error("Victims aliased internal slice")
	}
}
