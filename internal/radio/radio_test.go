package radio

import (
	"math"
	"testing"

	"peas/internal/geom"
	"peas/internal/sim"
	"peas/internal/stats"
)

// sinkRecorder records per-node airtime charges.
type sinkRecorder struct {
	tx map[NodeID]float64
	rx map[NodeID]float64
}

func newSinkRecorder() *sinkRecorder {
	return &sinkRecorder{tx: map[NodeID]float64{}, rx: map[NodeID]float64{}}
}

func (s *sinkRecorder) SpendTx(id NodeID, secs float64) { s.tx[id] += secs }
func (s *sinkRecorder) SpendRx(id NodeID, secs float64) { s.rx[id] += secs }

// stubReceiver is a configurable protocol endpoint. listening seeds the
// medium's power flag at Attach; tests power a radio down afterwards with
// Medium.SetListening, as the node layer does.
type stubReceiver struct {
	listening bool
	got       []Packet
	dists     []float64
}

func (r *stubReceiver) Listening() bool { return r.listening }
func (r *stubReceiver) Deliver(pkt Packet, dist float64) {
	r.got = append(r.got, pkt)
	r.dists = append(r.dists, dist)
}

// testMedium builds a medium over explicit positions with CSMA and
// collisions configurable.
func testMedium(cfg Config, positions []geom.Point) (*Medium, *sim.Engine, []*stubReceiver, *sinkRecorder) {
	engine := sim.NewEngine()
	field := geom.NewField(100, 100)
	idx := geom.NewIndex(field, positions, 3)
	sink := newSinkRecorder()
	m := NewMedium(cfg, engine, idx, stats.NewRNG(1), sink)
	receivers := make([]*stubReceiver, len(positions))
	for i := range positions {
		receivers[i] = &stubReceiver{listening: true}
		m.Attach(NodeID(i), receivers[i])
	}
	return m, engine, receivers, sink
}

func TestAirtime(t *testing.T) {
	cfg := DefaultConfig()
	m, _, _, _ := testMedium(cfg, []geom.Point{{X: 0, Y: 0}})
	// Paper: 25-byte packets at 20 Kbps = 10 ms.
	if got := m.Airtime(25); math.Abs(got-0.010) > 1e-12 {
		t.Errorf("airtime(25) = %v, want 0.010", got)
	}
}

func TestBroadcastDeliversWithinRange(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 5, Y: 0}}
	m, engine, rcv, sink := testMedium(DefaultConfig(), positions)

	m.Broadcast(Packet{From: 0, Size: 25, Range: 3, Payload: "hello"})
	engine.Run(sim.Forever)

	if len(rcv[1].got) != 1 {
		t.Fatalf("in-range receiver got %d packets", len(rcv[1].got))
	}
	if rcv[1].got[0].Payload != "hello" || math.Abs(rcv[1].dists[0]-2) > 1e-9 {
		t.Errorf("payload/dist: %+v / %v", rcv[1].got[0], rcv[1].dists[0])
	}
	if len(rcv[2].got) != 0 {
		t.Error("out-of-range receiver got the packet")
	}
	if len(rcv[0].got) != 0 {
		t.Error("transmitter received its own packet")
	}
	// Energy: transmitter charged once, in-range listener charged.
	if sink.tx[0] != m.Airtime(25) {
		t.Errorf("tx charge %v", sink.tx[0])
	}
	if sink.rx[1] != m.Airtime(25) {
		t.Errorf("rx charge %v", sink.rx[1])
	}
	if sink.rx[2] != 0 {
		t.Error("out-of-range node was charged")
	}
}

func TestSleepingNodesReceiveNothing(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	m, engine, rcv, sink := testMedium(DefaultConfig(), positions)
	m.SetListening(1, false)
	m.Broadcast(Packet{From: 0, Size: 25, Range: 3})
	engine.Run(sim.Forever)
	if len(rcv[1].got) != 0 {
		t.Error("sleeping node received a packet")
	}
	if sink.rx[1] != 0 {
		t.Error("sleeping node was charged for reception")
	}
}

func TestNodeSleepsWhileFrameInFlight(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	m, engine, rcv, _ := testMedium(DefaultConfig(), positions)
	m.Broadcast(Packet{From: 0, Size: 25, Range: 3})
	engine.Schedule(0.005, func() { m.SetListening(1, false) })
	engine.Run(sim.Forever)
	if len(rcv[1].got) != 0 {
		t.Error("node that slept mid-flight still received the frame")
	}
}

func TestRangeCappedAtMaxRange(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 12, Y: 0}}
	m, engine, rcv, _ := testMedium(DefaultConfig(), positions) // MaxRange 10
	m.Broadcast(Packet{From: 0, Size: 25, Range: 50})
	engine.Run(sim.Forever)
	if len(rcv[1].got) != 0 {
		t.Error("packet travelled beyond MaxRange")
	}
	// Non-positive range transmits nothing.
	sent0, _, _, _, _ := m.Stats()
	m.Broadcast(Packet{From: 0, Size: 25, Range: 0})
	engine.Run(sim.Forever)
	sent1, _, _, _, _ := m.Stats()
	if sent1 != sent0 {
		t.Error("zero-range packet was transmitted")
	}
}

func TestCollisionBetweenOverlappingFrames(t *testing.T) {
	// Two transmitters out of carrier-sense range of each other (hidden
	// terminals), one receiver between them.
	positions := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 0}}
	cfg := DefaultConfig()
	cfg.CSMAEnabled = false // force the overlap
	m, engine, rcv, _ := testMedium(cfg, positions)

	engine.Schedule(0, func() { m.Broadcast(Packet{From: 0, Size: 25, Range: 3}) })
	engine.Schedule(0.005, func() { m.Broadcast(Packet{From: 1, Size: 25, Range: 3}) })
	engine.Run(sim.Forever)

	if len(rcv[2].got) != 0 {
		t.Errorf("receiver decoded %d frames out of a collision", len(rcv[2].got))
	}
	_, _, collided, _, _ := m.Stats()
	if collided == 0 {
		t.Error("collision not counted")
	}
}

func TestNonOverlappingFramesBothDeliver(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 0}}
	cfg := DefaultConfig()
	cfg.CSMAEnabled = false
	m, engine, rcv, _ := testMedium(cfg, positions)
	engine.Schedule(0, func() { m.Broadcast(Packet{From: 0, Size: 25, Range: 3}) })
	engine.Schedule(0.02, func() { m.Broadcast(Packet{From: 1, Size: 25, Range: 3}) })
	engine.Run(sim.Forever)
	if len(rcv[2].got) != 2 {
		t.Errorf("got %d frames, want 2", len(rcv[2].got))
	}
}

func TestCSMADefersInsteadOfColliding(t *testing.T) {
	// Transmitters within carrier-sense range: the second defers and
	// both frames arrive.
	positions := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	m, engine, rcv, _ := testMedium(DefaultConfig(), positions)
	engine.Schedule(0, func() { m.Broadcast(Packet{From: 0, Size: 25, Range: 3}) })
	engine.Schedule(0.005, func() { m.Broadcast(Packet{From: 1, Size: 25, Range: 3}) })
	engine.Run(sim.Forever)
	if len(rcv[2].got) != 2 {
		t.Errorf("receiver got %d frames, want 2 (CSMA deferral)", len(rcv[2].got))
	}
	if m.Deferred() == 0 {
		t.Error("no deferral counted")
	}
}

func TestRandomLoss(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	cfg := DefaultConfig()
	cfg.LossRate = 0.5
	m, engine, rcv, _ := testMedium(cfg, positions)
	const n = 2000
	for i := 0; i < n; i++ {
		d := float64(i) * 0.05 // spaced out: no collisions
		engine.Schedule(d, func() { m.Broadcast(Packet{From: 0, Size: 25, Range: 3}) })
	}
	engine.Run(sim.Forever)
	got := len(rcv[1].got)
	if got < n*4/10 || got > n*6/10 {
		t.Errorf("with 50%% loss, delivered %d of %d", got, n)
	}
	_, _, _, lost, _ := m.Stats()
	if int(lost)+got != n {
		t.Errorf("lost(%d) + delivered(%d) != sent(%d)", lost, got, n)
	}
}

func TestFixedPowerThresholdFilter(t *testing.T) {
	// §4: with fixed transmission power, receivers filter by signal
	// strength equivalent to the requested range. A node at 5 m hears
	// the frame (physical coverage = MaxRange) but must not react when
	// the requested range is 3 m.
	positions := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 2, Y: 0}}
	cfg := DefaultConfig()
	cfg.FixedPower = true
	m, engine, rcv, sink := testMedium(cfg, positions)
	m.Broadcast(Packet{From: 0, Size: 25, Range: 3})
	engine.Run(sim.Forever)
	if len(rcv[1].got) != 0 {
		t.Error("beyond-threshold node reacted to the frame")
	}
	if sink.rx[1] == 0 {
		t.Error("node inside physical coverage should still pay reception energy")
	}
	if len(rcv[2].got) != 1 {
		t.Error("within-threshold node missed the frame")
	}
}

func TestStatsCounters(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	m, engine, _, _ := testMedium(DefaultConfig(), positions)
	m.Broadcast(Packet{From: 0, Size: 25, Range: 3})
	engine.Run(sim.Forever)
	sent, delivered, collided, lost, bytes := m.Stats()
	if sent != 1 || delivered != 1 || collided != 0 || lost != 0 || bytes != 25 {
		t.Errorf("stats = %d %d %d %d %d", sent, delivered, collided, lost, bytes)
	}
}
