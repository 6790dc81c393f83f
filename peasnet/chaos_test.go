package peasnet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"peas/internal/chaos"
	"peas/internal/core"
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
// crash-restart fault class, on each transport: a supervised working node
// is crashed, sits out a downtime, and must come back running its
// pre-crash protocol state rather than rebooting from scratch.
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
	stopSup := c.Supervise(100 * time.Millisecond)
	defer stopSup()
	c.Start()
	if !c.AwaitStable(0, 300*time.Millisecond, 10*time.Second) {
		t.Fatal("working set never stabilized")
	}

	victim := -1
	for _, n := range c.nodes() {
		if n.State() == core.Working {
			victim = n.ID()
			break
		}
	}
	if victim < 0 {
		t.Fatal("no working node to crash")
	}
	pre := c.nodes()[victim].Stats()
	if c.LastCheckpoint(victim) == nil {
		t.Fatal("supervisor took no checkpoint before the crash")
	}

	if err := c.CrashRestart(victim, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	restarted := c.nodes()[victim]
	// A fresh boot would start Sleeping with zeroed counters; a checkpoint
	// resume carries the working state and cumulative stats across. The
	// restored state lands on the node's event loop, so poll briefly.
	resumeBy := clk.Now().Add(5 * time.Second)
	for restarted.State() != core.Working && clk.Now().Before(resumeBy) {
		clk.Sleep(10 * time.Millisecond)
	}
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

// TestClusterStopEndsSupervision: Stop ends a supervision whose stop
// function was never called. No checkpoint is taken after it, nothing is
// left scheduled on the clock, and no goroutine is left behind.
func TestClusterStopEndsSupervision(t *testing.T) {
	before := runtime.NumGoroutine()
	vc := newVirtualClock()
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(10, 10),
		N:         12,
		Protocol:  core.DefaultConfig(),
		TimeScale: 150,
		Seed:      21,
		clk:       vc,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Supervise(100 * time.Millisecond)
	c.Start()
	vc.Sleep(time.Second)
	first := c.LastCheckpoint(0)
	vc.Sleep(200 * time.Millisecond)
	last := c.LastCheckpoint(0)
	if first == nil || last == first {
		t.Fatalf("supervision is not sweeping: checkpoints %p then %p", first, last)
	}

	c.Stop()
	vc.Sleep(time.Second)
	if got := c.LastCheckpoint(0); got != last {
		t.Error("a checkpoint was taken after Stop")
	}
	if n := vc.pending(); n != 0 {
		t.Errorf("%d callbacks still scheduled after Stop", n)
	}
	awaitGoroutines(t, before)
}
