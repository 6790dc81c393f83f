package oracle

// Detection tests: a checker that never fires is indistinguishable from
// one that checks nothing, so every invariant is exercised against a
// deliberately injected violation. The injections are white-box — they
// bypass the model's own guards, which is exactly what a regression in
// those guards would do.

import (
	"math"
	"testing"

	"peas/internal/core"
	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/radio"
	"peas/internal/stats"
)

func newCheckedNet(t *testing.T, n int, seed int64, cfg Config) (*node.Network, *Checker) {
	t.Helper()
	ncfg := node.DefaultConfig(n, seed)
	net, err := node.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	c := Attach(net, cfg)
	net.Start()
	return net, c
}

func hasInvariant(c *Checker, name string) bool {
	for _, v := range c.Violations() {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

func TestDetectsSleepingTransmit(t *testing.T) {
	net, c := newCheckedNet(t, 20, 3, DefaultConfig())
	net.Run(100)
	var sleeper *node.Node
	for _, n := range net.Nodes {
		if n.Alive() && n.State() == core.Sleeping {
			sleeper = n
			break
		}
	}
	if sleeper == nil {
		t.Fatal("no sleeping node at t=100")
	}
	// Put a frame on the air from the sleeping node, bypassing the
	// node-layer liveness guard.
	net.Medium.Broadcast(radio.Packet{From: radio.NodeID(sleeper.ID()), Size: 25, Range: 3})
	if !hasInvariant(c, "tx-discipline") {
		t.Errorf("sleeping-node transmission not flagged; violations: %v", c.Violations())
	}
}

func TestDetectsDeadTransmit(t *testing.T) {
	net, c := newCheckedNet(t, 20, 3, DefaultConfig())
	net.Run(100)
	victim := net.Nodes[0]
	victim.Fail(node.InjectedFailure)
	net.Medium.Broadcast(radio.Packet{From: radio.NodeID(victim.ID()), Size: 25, Range: 3})
	if !hasInvariant(c, "tx-discipline") {
		t.Errorf("dead-node transmission not flagged; violations: %v", c.Violations())
	}
}

func TestDetectsRxWhileSleeping(t *testing.T) {
	net, c := newCheckedNet(t, 20, 3, DefaultConfig())
	net.Run(100)
	for _, n := range net.Nodes {
		if n.Alive() && n.State() == core.Sleeping {
			// Hand a frame straight past the medium's listening guard.
			c.checkDeliver(n, radio.Packet{From: 1, Size: 25})
			break
		}
	}
	if !hasInvariant(c, "rx-discipline") {
		t.Errorf("delivery to sleeping node not flagged; violations: %v", c.Violations())
	}
}

// TestDetectsStalePowerFlag: a sleeping radio the medium still takes for
// listening, as a missed SetListening would leave it, is flagged at the
// next scan.
func TestDetectsStalePowerFlag(t *testing.T) {
	net, c := newCheckedNet(t, 20, 3, DefaultConfig())
	net.Run(100)
	if hasInvariant(c, "rx-discipline") {
		t.Fatalf("flagged before any injection: %v", c.Violations())
	}
	for _, n := range net.Nodes {
		if n.Alive() && n.State() == core.Sleeping {
			net.Medium.SetListening(radio.NodeID(n.ID()), true)
			break
		}
	}
	net.Run(100 + DefaultConfig().Interval)
	if !hasInvariant(c, "rx-discipline") {
		t.Errorf("stale power flag not flagged; violations: %v", c.Violations())
	}
}

func TestDetectsClockRegression(t *testing.T) {
	_, c := newCheckedNet(t, 5, 3, DefaultConfig())
	c.observeEvent(10)
	c.observeEvent(9.5)
	if !hasInvariant(c, "timer-monotonic") {
		t.Errorf("clock regression not flagged; violations: %v", c.Violations())
	}
}

func TestDetectsNonFiniteEventTime(t *testing.T) {
	_, c := newCheckedNet(t, 5, 3, DefaultConfig())
	c.observeEvent(math.NaN())
	if !hasInvariant(c, "timer-monotonic") {
		t.Errorf("NaN event time not flagged; violations: %v", c.Violations())
	}
}

func TestDetectsLedgerCorruption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interval = 5
	net, c := newCheckedNet(t, 20, 3, cfg)
	net.Run(50)
	// Conjure 5 J out of nowhere: remaining charge rises and the ledger
	// identity initial == remaining + consumed breaks.
	b := net.Nodes[0].Battery()
	st := b.Snapshot()
	st.Remaining += 5
	b.Restore(st)
	net.Run(60)
	if !hasInvariant(c, "energy-ledger") {
		t.Errorf("ledger corruption not flagged; violations: %v", c.Violations())
	}
	if !hasInvariant(c, "energy-monotone") {
		t.Errorf("rising charge not flagged; violations: %v", c.Violations())
	}
}

func TestDetectsUndeadBattery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interval = 5
	net, c := newCheckedNet(t, 20, 3, cfg)
	net.Run(50)
	// Mark a battery dead while its node keeps running. One scan of
	// slack is allowed (lazy settling can observe the exhaustion before
	// the depletion event fires), so run two full intervals.
	b := net.Nodes[0].Battery()
	st := b.Snapshot()
	st.Dead = true
	b.Restore(st)
	net.Run(65)
	if !hasInvariant(c, "lifecycle") {
		t.Errorf("dead battery with live node not flagged; violations: %v", c.Violations())
	}
}

// TestDetectsUnresolvedOverlap engineers the §4 race — two nodes probing
// concurrently so neither hears a REPLY and both start working within
// Rp — and then pretends the elder broadcast plenty of REPLYs without
// resolving the pair.
func TestDetectsUnresolvedOverlap(t *testing.T) {
	// Pick node seeds whose first wakeup draws land close enough that
	// the second prober's window closes before the first worker's REPLY
	// could reach it (window 0.1 s, probes in the first half).
	const lambda0 = 0.1
	w1 := stats.NewRNG(1).Exp(lambda0)
	seed2 := int64(-1)
	for s := int64(2); s < 20000; s++ {
		w2 := stats.NewRNG(s).Exp(lambda0)
		if d := w2 - w1; d > 0.001 && d < 0.04 {
			seed2 = s
			break
		}
	}
	if seed2 < 0 {
		t.Fatal("no seed pair with overlapping probe windows found")
	}

	ncfg := node.DefaultConfig(2, 9)
	ncfg.Positions = []geom.Point{{X: 25, Y: 25}, {X: 26, Y: 25}}
	ncfg.NodeSeeds = []int64{1, seed2}
	net, err := node.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := DefaultConfig()
	ocfg.Interval = 5
	ocfg.OverlapGrace = 30
	ocfg.OverlapReplies = 3
	c := Attach(net, ocfg)
	net.Start()
	net.Run(w1 + 1)
	if net.WorkingCount() != 2 {
		t.Fatalf("race not reproduced: %d working nodes at t=%.2f", net.WorkingCount(), w1+1)
	}

	// With only two nodes no third prober exists, so the elder never
	// replies and the unresolvable pair is correctly tolerated.
	net.Run(w1 + 50)
	if len(c.Violations()) != 0 {
		t.Fatalf("pair with no resolution opportunities was flagged: %v", c.Violations())
	}

	// Now claim the elder replied repeatedly; the younger should have
	// yielded, so the next scan must flag the pair.
	if len(c.pairs) != 1 {
		t.Fatalf("pair table has %d entries, want 1", len(c.pairs))
	}
	for _, p := range c.pairs {
		p.elderReplies = ocfg.OverlapReplies
	}
	net.Run(w1 + 60)
	if !hasInvariant(c, "working-overlap") {
		t.Errorf("unresolved redundant pair not flagged; violations: %v", c.Violations())
	}
}

func TestViolationCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxViolations = 3
	_, c := newCheckedNet(t, 5, 3, cfg)
	for i := 0; i < 10; i++ {
		c.observeEvent(math.NaN())
	}
	if len(c.Violations()) != 3 {
		t.Errorf("recorded %d violations, want cap 3", len(c.Violations()))
	}
	if c.Dropped() != 7 {
		t.Errorf("dropped %d, want 7", c.Dropped())
	}
	if c.Err() == nil {
		t.Error("Err() should be non-nil with violations recorded")
	}
}
