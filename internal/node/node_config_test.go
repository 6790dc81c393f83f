package node

import (
	"testing"

	"peas/internal/core"
	"peas/internal/geom"
	"peas/internal/radio"
)

// TestFixedPowerNetworkEquivalent checks §4's fixed-transmission-power
// recipe end to end: the working set produced with threshold filtering is
// statistically equivalent to the variable-power one.
func TestFixedPowerNetworkEquivalent(t *testing.T) {
	counts := map[bool]int{}
	for _, fixed := range []bool{false, true} {
		cfg := DefaultConfig(240, 61)
		cfg.Radio.FixedPower = fixed
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.Start()
		net.Run(500)
		counts[fixed] = net.WorkingCount()
	}
	lo, hi := counts[false], counts[true]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*4 < hi*3 { // >25% apart would mean the threshold filter is off
		t.Errorf("working sets diverge: variable=%d fixed=%d", counts[false], counts[true])
	}
}

// TestIrregularNetworkDenserWorkers checks §4's irregularity prediction
// at the network level: attenuation irregularity increases the total
// working count (poor areas need more workers).
func TestIrregularNetworkDenserWorkers(t *testing.T) {
	var plain, irregular int
	const runs = 3
	for r := 0; r < runs; r++ {
		cfg := DefaultConfig(480, int64(70+r))
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.Start()
		net.Run(600)
		plain += net.WorkingCount()

		cfg2 := DefaultConfig(480, int64(70+r))
		cfg2.Radio.Irregularity = 0.4
		net2, err := NewNetwork(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		net2.Start()
		net2.Run(600)
		irregular += net2.WorkingCount()
	}
	if irregular <= plain {
		t.Errorf("irregular channel should need more workers: %d vs %d",
			irregular, plain)
	}
}

// TestSingleProbeLossierPromotesMore is the §4 loss-compensation effect
// at the network level.
func TestSingleProbeLossierPromotesMore(t *testing.T) {
	workingWith := func(probes int) int {
		cfg := DefaultConfig(300, 81)
		cfg.Radio.LossRate = 0.15
		cfg.Protocol.NumProbes = probes
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.Start()
		net.Run(500)
		return net.WorkingCount()
	}
	single := workingWith(1)
	triple := workingWith(3)
	if triple >= single {
		t.Errorf("3 probes should suppress loss-induced promotions: 1-probe=%d 3-probe=%d",
			single, triple)
	}
}

// TestExplicitPositions verifies deterministic deployments round-trip
// into node positions.
func TestExplicitPositions(t *testing.T) {
	pos := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	cfg := DefaultConfig(3, 1)
	cfg.Positions = pos
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range net.Nodes {
		if n.Pos() != pos[i] {
			t.Errorf("node %d at %v, want %v", i, n.Pos(), pos[i])
		}
	}
}

// TestBatteryChargesWithinConfiguredRange verifies the 54-60 J draw.
func TestBatteryChargesWithinConfiguredRange(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(200, 91))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range net.Nodes {
		c := n.Battery().Initial()
		if c < 54 || c > 60 {
			t.Fatalf("initial charge %v outside [54, 60]", c)
		}
	}
}

// TestDeadNodesStopTransmitting drives a network past several deaths and
// confirms dead nodes neither transmit nor receive.
func TestDeadNodesStopTransmitting(t *testing.T) {
	cfg := DefaultConfig(100, 97)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var deadDeliveries int
	net.Observe(Observer{Deliver: func(id core.NodeID, _ radio.Packet, _ float64) {
		if !net.Nodes[id].Alive() {
			deadDeliveries++
		}
	}})
	net.Start()
	net.Run(100)
	// Kill half the nodes and watch the medium.
	for i := 0; i < 50; i++ {
		net.Nodes[i].Fail(InjectedFailure)
	}
	net.Run(400)
	if deadDeliveries != 0 {
		t.Errorf("%d deliveries to dead nodes", deadDeliveries)
	}
	// Energy mode of the dead: no further drain.
	now := net.Engine.Now()
	before := net.Nodes[0].Battery().Consumed(now)
	net.Run(800)
	after := net.Nodes[0].Battery().Consumed(net.Engine.Now())
	if after != before {
		t.Errorf("dead node kept consuming: %v -> %v", before, after)
	}
}
