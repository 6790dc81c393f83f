package peasnet

import (
	"runtime"
	"testing"
	"time"

	"peas/internal/core"
	"peas/internal/geom"
)

func TestClusterStabilizes(t *testing.T) {
	cfg := ClusterConfig{
		Field:     geom.NewField(20, 20),
		N:         40,
		Protocol:  core.DefaultConfig(),
		TimeScale: 100, // 1 real second = 100 protocol seconds
		Seed:      7,
		clk:       newVirtualClock(),
	}
	c, err := NewCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()

	if !c.AwaitStable(0, 500*time.Millisecond, 10*time.Second) {
		t.Fatalf("working set never stabilized; working=%d", c.WorkingCount())
	}
	working := c.WorkingCount()
	t.Logf("working=%d of %d", working, cfg.N)
	if working == 0 || working == cfg.N {
		t.Fatalf("implausible working count %d", working)
	}

	// Each working node should have no other working node within Rp
	// (allowing a small slack for in-flight turn-off resolution).
	pts := c.WorkingPositions()
	tooClose := 0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) < cfg.Protocol.ProbingRange {
				tooClose++
			}
		}
	}
	if tooClose > len(pts)/4 {
		t.Errorf("%d working pairs closer than Rp (working=%d)", tooClose, len(pts))
	}
}

func TestClusterReplacesFailedWorker(t *testing.T) {
	cfg := ClusterConfig{
		Field:     geom.NewField(6, 6),
		N:         8,
		Protocol:  core.DefaultConfig(),
		TimeScale: 200,
		Seed:      11,
		clk:       newVirtualClock(),
	}
	// Dense tiny field: one worker covers everything within Rp = 3.
	c, err := NewCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if !c.AwaitStable(0, 300*time.Millisecond, 10*time.Second) {
		t.Fatalf("working set never stabilized")
	}

	// Kill every working node; a sleeper must take over.
	killed := 0
	for _, n := range c.Nodes {
		if n.State() == core.Working {
			n.Stop()
			killed++
		}
	}
	if killed == 0 {
		t.Fatal("no working nodes to kill")
	}

	deadline := cfg.clk.Now().Add(20 * time.Second)
	for cfg.clk.Now().Before(deadline) {
		if c.WorkingCount() > 0 {
			t.Logf("replacement after killing %d workers: working=%d", killed, c.WorkingCount())
			return
		}
		cfg.clk.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("no replacement worker emerged after killing %d workers", killed)
}

func TestClusterShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := ClusterConfig{
		Field:     geom.NewField(15, 15),
		N:         20,
		Protocol:  core.DefaultConfig(),
		TimeScale: 100,
		Seed:      3,
		clk:       newVirtualClock(),
	}
	c, err := NewCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	cfg.clk.Sleep(300 * time.Millisecond)
	c.Stop()
	awaitGoroutines(t, before+2)
}

// awaitGoroutines fails t unless the goroutine count falls to at most
// limit within a second of wall time, which the runtime takes to reap
// exited goroutines.
func awaitGoroutines(t *testing.T, limit int) {
	t.Helper()
	var after int
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		after = runtime.NumGoroutine()
		if after <= limit {
			return
		}
	}
	t.Errorf("goroutines leaked: %d running, want at most %d", after, limit)
}

// TestUDPClusterStabilizes runs a whole cluster over one table-less UDP
// transport: every node binds its own loopback socket in this process.
func TestUDPClusterStabilizes(t *testing.T) {
	tr, err := NewUDP(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{
		Field:     geom.NewField(10, 10),
		N:         12,
		Protocol:  core.DefaultConfig(),
		TimeScale: 100,
		Seed:      5,
	}
	c, err := NewCluster(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Stop()
		_ = tr.Close()
	}()
	c.Start()
	if !c.AwaitStable(0, 300*time.Millisecond, 15*time.Second) {
		t.Fatalf("udp cluster never stabilized; working=%d", c.WorkingCount())
	}
	if w := c.WorkingCount(); w == 0 || w == cfg.N {
		t.Fatalf("implausible working count %d over UDP", w)
	}
	t.Logf("udp working=%d of %d", c.WorkingCount(), cfg.N)
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []any{
		core.Probe{From: 42, Seq: 2},
		core.Reply{From: 7, RateEstimate: 0.0213, DesiredRate: 0.02, TimeWorking: 1234.5},
	}
	for _, payload := range cases {
		frame, err := Marshal(payload)
		if err != nil {
			t.Fatalf("marshal %T: %v", payload, err)
		}
		if len(frame) != FrameSize {
			t.Errorf("frame size %d, want %d", len(frame), FrameSize)
		}
		back, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", payload, err)
		}
		if back != payload {
			t.Errorf("round trip: got %#v want %#v", back, payload)
		}
	}
	if _, err := Unmarshal([]byte{9, 9}); err == nil {
		t.Error("short frame should fail")
	}
	if _, err := Unmarshal(make([]byte, FrameSize)); err == nil {
		t.Error("unknown frame type should fail")
	}
	if _, err := Marshal("bogus"); err == nil {
		t.Error("unknown payload should fail")
	}
}
