package forward

import (
	"testing"

	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/node"
)

func testNet(t *testing.T, n int, seed int64) *node.Network {
	t.Helper()
	net, err := node.NewNetwork(node.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDefaultConfigCorners(t *testing.T) {
	cfg := DefaultConfig(geom.NewField(50, 50))
	if cfg.Source != (geom.Point{X: 1, Y: 1}) || cfg.Sink != (geom.Point{X: 49, Y: 49}) {
		t.Errorf("source/sink: %+v", cfg)
	}
	if cfg.Period != 10 || cfg.HopRange != 10 {
		t.Errorf("workload params: %+v", cfg)
	}
}

func TestReportsFlowOverWorkingSet(t *testing.T) {
	net := testNet(t, 320, 21)
	h := NewHarness(DefaultConfig(net.Field), net)
	h.Start()
	net.Start()
	net.Run(1000)

	gen, succ := h.Ratio().Counts()
	if gen != 100 {
		t.Errorf("generated %d reports in 1000 s, want 100", gen)
	}
	// A 320-node deployment keeps the field connected: nearly every
	// report must arrive.
	if float64(succ) < 0.95*float64(gen) {
		t.Errorf("delivered %d of %d", succ, gen)
	}
	if h.hops.Len() != succ {
		t.Errorf("hop series %d entries for %d deliveries", h.hops.Len(), succ)
	}
	// Paths across a 68-meter diagonal with 10 m hops need >= 6 hops.
	var maxHops float64
	for _, p := range h.hops.Points() {
		maxHops = max(maxHops, p.V)
	}
	if maxHops < 6 {
		t.Errorf("max hops %v implausibly small", maxHops)
	}
	if lt, dropped := h.DeliveryLifetime(0.9); dropped {
		t.Errorf("delivery lifetime dropped at %v during healthy phase", lt)
	}
}

func TestDeliveryFailsWithoutWorkers(t *testing.T) {
	net := testNet(t, 50, 22)
	h := NewHarness(DefaultConfig(net.Field), net)
	h.Start()
	// Do not start the network: no node ever works.
	net.Run(200)
	gen, succ := h.Ratio().Counts()
	if gen == 0 {
		t.Fatal("no reports generated")
	}
	if succ != 0 {
		t.Errorf("%d deliveries with no working nodes", succ)
	}
	if lt, dropped := h.DeliveryLifetime(0.9); !dropped || lt != 10 {
		t.Errorf("lifetime = (%v, %v), want (10, true)", lt, dropped)
	}
}

func TestPathEnergyCharged(t *testing.T) {
	net := testNet(t, 320, 23)
	h := NewHarness(DefaultConfig(net.Field), net)
	h.Start()
	net.Start()
	net.Run(500)
	// Some node on some path must have paid data-transmit energy.
	var dataTx float64
	for _, n := range net.Nodes {
		dataTx += n.Battery().ConsumedIn(net.Engine.Now(), energy.DataTransmit)
	}
	if dataTx <= 0 {
		t.Error("no data-transmit energy charged along delivery paths")
	}
}
