package peasnet

import (
	"math"
	"testing"
	"time"

	"peas/internal/chaos"
	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/metrics"
)

func TestVirtualBatteryDrain(t *testing.T) {
	b := newBattery(BatteryConfig{Joules: 1.2})
	// 50 protocol seconds in idle: 0.6 J.
	depleteAt, dead := b.setMode(0, energy.Idle)
	if dead {
		t.Fatal("fresh battery dead")
	}
	if depleteAt != 100 {
		t.Errorf("depletion projected at %v, want 100", depleteAt)
	}
	if got := b.remainingAt(50); got != 0.6 {
		t.Errorf("remaining = %v, want 0.6", got)
	}
	// Switch to sleep at t=50: projection extends enormously.
	depleteAt, dead = b.setMode(50, energy.Sleep)
	if dead || depleteAt < 10000 {
		t.Errorf("sleep depletion at %v", depleteAt)
	}
}

func TestVirtualBatteryDepletes(t *testing.T) {
	b := newBattery(BatteryConfig{Joules: 0.012})
	b.setMode(0, energy.Idle) // 1 second of life
	if got := b.remainingAt(2); got != 0 {
		t.Errorf("remaining = %v after depletion", got)
	}
	_, dead := b.setMode(3, energy.Sleep)
	if !dead {
		t.Error("depleted battery not reported dead")
	}
}

func TestVirtualBatteryCustomProfile(t *testing.T) {
	p := energy.Profile{IdleW: 1, SleepW: 0.5, ReceiveW: 1, TransmitW: 2}
	b := newBattery(BatteryConfig{Joules: 10, Profile: p})
	if at, _ := b.setMode(0, energy.Idle); at != 10 {
		t.Errorf("custom profile depletion at %v, want 10", at)
	}
}

func TestLiveNodeDiesOnDepletion(t *testing.T) {
	vc := newVirtualClock()
	tr := vc.inMemory()
	defer func() { _ = tr.Close() }()

	// One lone node with a tiny battery at high time compression: it
	// wakes, works, and depletes within a fraction of real time.
	// At scale 1000, idle life of 60 protocol seconds = 60 ms real.
	n, err := NewNode(Config{
		ID:        1,
		Pos:       geom.Point{X: 1, Y: 1},
		Protocol:  core.DefaultConfig(),
		TimeScale: 1000,
		Battery:   &BatteryConfig{Joules: 0.72}, // 60 s idle life
		clk:       vc,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.Start()

	deadline := vc.Now().Add(10 * time.Second)
	sawWorking := false
	for vc.Now().Before(deadline) {
		switch n.State() {
		case core.Working:
			sawWorking = true
		case core.Dead:
			if !sawWorking {
				t.Error("node died without ever working")
			}
			if rem, ok := n.BatteryRemaining(); !ok || rem > 0.01 {
				t.Errorf("remaining at death = %v (ok=%v)", rem, ok)
			}
			return
		}
		vc.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node never depleted; state=%v", n.State())
}

// TestZeroDrawModeNeverDepletes: a mode that draws nothing projects its
// depletion at the largest float; the node must arm no timer for it
// rather than one whose delay overflowed.
func TestZeroDrawModeNeverDepletes(t *testing.T) {
	vc := newVirtualClock()
	tr := vc.inMemory()
	defer func() { _ = tr.Close() }()
	proto := core.DefaultConfig()
	proto.InitialRate = 1e-6 // asleep for the whole test
	n, err := NewNode(Config{
		ID: 3, Pos: geom.Point{X: 1, Y: 1}, Protocol: proto, TimeScale: 1000,
		Battery: &BatteryConfig{Joules: 1, Profile: energy.Profile{IdleW: 0.012, ReceiveW: 0.012, TransmitW: 0.06}},
		clk:     vc,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.Start()
	vc.Sleep(50 * time.Millisecond)
	if st := n.State(); st != core.Sleeping {
		t.Fatalf("state = %v after 50 protocol seconds asleep at zero draw, want sleeping", st)
	}
	if rem, _ := n.BatteryRemaining(); rem != 1 {
		t.Errorf("remaining = %v, want the full 1 J", rem)
	}
}

// TestWallDelay pins the protocol-to-wall-time conversion behind After and
// the battery watch: a delay past what a time.Duration holds arms no timer
// instead of wrapping to one that fires at once.
func TestWallDelay(t *testing.T) {
	for _, tc := range []struct {
		proto, scale float64
		want         time.Duration
		ok           bool
	}{
		{10, 1, 10 * time.Second, true},
		{10, 4, 2500 * time.Millisecond, true},
		{0, 100, 0, true},
		{-1, 1, 0, true},
		{1e12, 1000, 1e9 * time.Second, true},
		{1e12, 1, 0, false},            // a sleep drawn at InitialRate 1e-12
		{math.MaxFloat64, 1, 0, false}, // the never of a mode that draws nothing
		{math.Inf(1), 1, 0, false},
		{math.NaN(), 1, 0, false},
	} {
		got, ok := wallDelay(tc.proto, tc.scale)
		if got != tc.want || ok != tc.ok {
			t.Errorf("wallDelay(%v, %v) = %v, %v; want %v, %v", tc.proto, tc.scale, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBatteryRemainingDisabled(t *testing.T) {
	tr := NewInMemory()
	defer func() { _ = tr.Close() }()
	n, err := NewNode(Config{
		ID: 2, Pos: geom.Point{X: 1, Y: 1}, Protocol: core.DefaultConfig(),
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if _, ok := n.BatteryRemaining(); ok {
		t.Error("battery emulation reported without config")
	}
}

func TestClusterWithBatteriesExhausts(t *testing.T) {
	vc := newVirtualClock()
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(5, 5),
		N:         6,
		Protocol:  core.DefaultConfig(),
		TimeScale: 2000,
		Seed:      3,
		Battery:   &BatteryConfig{Joules: 1.2}, // 100 s idle life each
		clk:       vc,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()

	// 6 nodes, one working at a time on a tiny field: the cluster
	// should rotate through several workers and eventually die out.
	deadline := vc.Now().Add(20 * time.Second)
	for vc.Now().Before(deadline) {
		counts := c.StateCounts()
		if counts[core.Dead] == 6 {
			stats := c.TotalStats()
			if stats.Wakeups == 0 {
				t.Error("no wakeups recorded")
			}
			t.Logf("all dead after %d wakeups, %.0f s total working time",
				stats.Wakeups, stats.TimeWorking)
			return
		}
		vc.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster did not exhaust; states=%v", c.StateCounts())
}

// TestTransportLossInjection: under near-total channel loss, REPLYs are
// dropped, probers hear nothing, and everyone works.
func TestTransportLossInjection(t *testing.T) {
	vc := newVirtualClock()
	tr := vc.inMemory()
	defer func() { _ = tr.Close() }()
	counters := metrics.NewCounters()
	ch := chaos.NewChannel(1, counters)
	ch.SetLoss(0.999)
	tr.SetFaultInjector(NewChaosInjector(ch, 500))
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(5, 5),
		N:         10,
		Protocol:  core.DefaultConfig(),
		TimeScale: 500,
		Seed:      9,
		clk:       vc,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	vc.Sleep(1 * time.Second)
	if w := c.WorkingCount(); w < 8 {
		t.Errorf("working = %d under total loss, want nearly all", w)
	}
	if counters.Get(chaos.CtrDropLoss) == 0 {
		t.Error("no drops counted")
	}
}
