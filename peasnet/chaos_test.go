package peasnet

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"peas/internal/chaos"
	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/metrics"
)

// TestInMemoryChaosInjectorCounts drives the transport directly: every
// judged delivery must be accounted for as delivered, dropped or
// duplicated, with the channel's counters as the only drop count.
func TestInMemoryChaosInjectorCounts(t *testing.T) {
	vc := newVirtualClock()
	tr := vc.inMemory()
	defer func() { _ = tr.Close() }()

	counters := metrics.NewCounters()
	ch := chaos.NewChannel(41, counters)
	ch.SetLoss(0.3)
	ch.SetDuplication(0.2)
	tr.SetFaultInjector(NewChaosInjector(ch, 1))

	var received atomic.Uint64
	listening := func() bool { return true }
	recv := func([]byte, float64) { received.Add(1) }
	origin := geom.Point{}
	for id := 1; id <= 2; id++ {
		if err := tr.Register(id, origin, listening, recv); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Register(0, origin, listening, func([]byte, float64) {
		t.Error("sender received its own frame")
	}); err != nil {
		t.Fatal(err)
	}

	// Nothing bounds the deliveries in flight: every one of an unthrottled
	// burst arrives once the clock runs them.
	const frames = 2000
	for i := 0; i < frames; i++ {
		if err := tr.Broadcast(0, origin, 10, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	vc.Sleep(0)
	want := uint64(2*frames) - counters.Get(chaos.CtrDropLoss) + counters.Get(chaos.CtrDup)
	drops := counters.Get(chaos.CtrDropLoss)
	dups := counters.Get(chaos.CtrDup)
	if got := received.Load(); got != want {
		t.Errorf("received %d deliveries, want %d (judged %d, drops %d, dups %d)",
			got, want, 2*frames, drops, dups)
	}
	if drops == 0 || dups == 0 {
		t.Errorf("impairments never fired: drops=%d dups=%d", drops, dups)
	}
}

// TestClusterCrashRestartResumesFromCheckpoint is the live half of the
// crash-restart fault class, on each transport: a working node is
// crashed, sits out a downtime, and must come back running its protocol
// state at the crash instant rather than rebooting from scratch.
func TestClusterCrashRestartResumesFromCheckpoint(t *testing.T) {
	vc := newVirtualClock()
	for _, tc := range []struct {
		name      string
		clk       clock
		transport func() (Transport, error)
	}{
		{"mem", vc, func() (Transport, error) { return vc.inMemory(), nil }},
		{"udp", wall, func() (Transport, error) { return NewUDP(nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.transport()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = tr.Close() }()
			crashRestartResumes(t, tr, tc.clk)
		})
	}
}

func crashRestartResumes(t *testing.T, tr Transport, clk clock) {
	cfg := ClusterConfig{
		Field:     geom.NewField(6, 6),
		N:         8,
		Protocol:  core.DefaultConfig(),
		TimeScale: 200,
		Seed:      13,
		clk:       clk,
	}
	c, err := NewCluster(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if !c.AwaitStable(0, 300*time.Millisecond, 10*time.Second) {
		t.Fatal("working set never stabilized")
	}

	victim := -1
	for _, n := range c.Nodes {
		if n.State() == core.Working {
			victim = n.ID()
			break
		}
	}
	if victim < 0 {
		t.Fatal("no working node to crash")
	}
	restarted := c.Nodes[victim]
	pre := restarted.Stats()

	if err := c.CrashRestart(victim, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// A fresh boot would start Sleeping with zeroed counters; a resume
	// carries the working state and cumulative stats across.
	if st := restarted.State(); st != core.Working {
		t.Errorf("restarted node state = %v, want Working (fresh boot instead of resume?)", st)
	}
	post := restarted.Stats()
	if post.Wakeups < pre.Wakeups || post.ProbesSent < pre.ProbesSent {
		t.Errorf("stats went backwards across restart: pre=%+v post=%+v", pre, post)
	}

	// The cluster keeps functioning around the restarted node.
	deadline := clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		if c.WorkingCount() > 0 {
			return
		}
		clk.Sleep(20 * time.Millisecond)
	}
	t.Error("no working nodes after crash-restart")
}

// TestClusterStopDuringCrashRestartDowntime: a node whose crash-restart
// downtime Cluster.Stop falls in does not come back when the downtime
// ends, even over a transport the caller owns, which Stop leaves open.
// Every node reads Dead, nothing is left scheduled on the clock, and no
// goroutine is left.
func TestClusterStopDuringCrashRestartDowntime(t *testing.T) {
	before := runtime.NumGoroutine()
	vc := newVirtualClock()
	tr := vc.inMemory()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(10, 10),
		N:         12,
		Protocol:  core.DefaultConfig(),
		TimeScale: 150,
		Seed:      21,
		Battery:   &BatteryConfig{Joules: 500},
		clk:       vc,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	vc.Sleep(time.Second)
	vc.AfterFunc(100*time.Millisecond, c.Stop)
	if err := c.CrashRestart(0, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	vc.Sleep(time.Second)
	for _, n := range c.Nodes {
		if st := n.State(); st != core.Dead {
			t.Errorf("node %d reads %v after Stop, want Dead", n.ID(), st)
		}
	}
	if n := vc.pending(); n != 0 {
		t.Errorf("%d callbacks still scheduled after Stop", n)
	}
	awaitGoroutines(t, before)
}

// TestCrashRestartKeepsSimulatorSemantics holds a live crash-restart to
// node.Node.Crash and ReviveFrom on a one-node cluster: the node crashes
// asleep, its wakeup falls due during the downtime and fires at restart,
// its time-in-state leaves the downtime out, and its battery draws sleep
// power while down.
func TestCrashRestartKeepsSimulatorSemantics(t *testing.T) {
	const scale = 100
	vc := newVirtualClock()
	var log []core.State
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(10, 10),
		N:         1,
		Protocol:  core.DefaultConfig(),
		TimeScale: scale,
		Seed:      3,
		OnState:   func(_ int, s core.State) { log = append(log, s) },
		Battery:   &BatteryConfig{Joules: 500},
		clk:       vc,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	n := c.Nodes[0]
	before := endState(n)
	if before.proto.State != core.Sleeping || len(before.proto.Timers) != 1 {
		t.Fatalf("booted node: state %v, timers %+v; want Sleeping with its wakeup", before.proto.State, before.proto.Timers)
	}
	wakeAt := before.proto.Timers[0].At
	// Crash at a tenth of the sleep and stay down past the wakeup.
	crashAt := wakeAt / 10
	vc.Sleep(time.Duration(crashAt / scale * float64(time.Second)))
	down := time.Duration(wakeAt / scale * float64(time.Second))
	atCrash := endState(n)
	if err := c.CrashRestart(0, down); err != nil {
		t.Fatal(err)
	}
	restarted := endState(n)

	downProto := restarted.at - atCrash.at
	sleepDraw := energy.MotesProfile().SleepW * downProto
	if got := atCrash.joules - restarted.joules; math.Abs(got-sleepDraw) > 1e-9*sleepDraw {
		t.Errorf("battery drew %g J while down %g s, want sleep draw %g J", got, downProto, sleepDraw)
	}
	if restarted.proto.State != core.Sleeping || restarted.proto.StateSince != restarted.at {
		t.Errorf("restarted: state %v since %g at %g; want Sleeping since the restart",
			restarted.proto.State, restarted.proto.StateSince, restarted.at)
	}
	if len(restarted.proto.Timers) != 1 || restarted.proto.Timers[0].At != wakeAt {
		t.Errorf("restarted timers %+v, want the wakeup at %g", restarted.proto.Timers, wakeAt)
	}

	vc.Sleep(0) // the overdue wakeup fires now
	s := n.Stats()
	if s.Wakeups != 1 || n.State() != core.Probing {
		t.Errorf("after restart: %d wakeups, state %v; want the overdue wakeup to have fired", s.Wakeups, n.State())
	}
	if inState := s.TimeSleeping + s.TimeProbing + s.TimeWorking; inState > restarted.at-downProto {
		t.Errorf("time in state %g s counts the %g s downtime (node clock %g s)", inState, downProto, restarted.at)
	}
	if want := []core.State{core.Sleeping, core.Dead, core.Sleeping, core.Probing}; !slices.Equal(log, want) {
		t.Errorf("OnState saw %v, want %v", log, want)
	}
}

// TestCrashRestartAfterBatteryEmptiesStaysDead: a node whose battery
// empties at sleep draw during its downtime does not come back, as a
// simulated one does not, and nothing is left scheduled for it.
func TestCrashRestartAfterBatteryEmptiesStaysDead(t *testing.T) {
	vc := newVirtualClock()
	var log []core.State
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(10, 10),
		N:         1,
		Protocol:  core.DefaultConfig(),
		TimeScale: 100,
		Seed:      3,
		OnState:   func(_ int, s core.State) { log = append(log, s) },
		Battery:   &BatteryConfig{Joules: 1e-3}, // 33 s at sleep draw
		clk:       vc,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if err := c.CrashRestart(0, time.Second); err != nil { // 100 s down
		t.Fatal(err)
	}
	n := c.Nodes[0]
	if left, _ := n.BatteryRemaining(); n.State() != core.Dead || left != 0 {
		t.Errorf("after restart: state %v with %g J left, want Dead with an empty battery", n.State(), left)
	}
	if want := []core.State{core.Sleeping, core.Dead}; !slices.Equal(log, want) {
		t.Errorf("OnState saw %v, want %v", log, want)
	}
	if err := c.CrashRestart(0, time.Second); err == nil {
		t.Error("a dead node crashed again")
	}
	if n := vc.pending(); n != 0 {
		t.Errorf("%d callbacks still scheduled for a dead node", n)
	}
}
