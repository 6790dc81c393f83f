package radio

import (
	"testing"

	"peas/internal/core"
	"peas/internal/geom"
	"peas/internal/sim"
	"peas/internal/stats"
)

// A payload sent with BroadcastArg goes back to its sender exactly when
// the medium holds no event of its frame. These tests hold the medium to
// both halves of "exactly": nothing of a frame runs after its release, and
// every frame is released by the time the channel is quiet.

// token is one transmission's payload; it records what happened to it.
type token struct {
	released   bool
	deliveries int
}

// tokenReceiver flags any delivery of a payload its sender already has back.
type tokenReceiver struct {
	t *testing.T
}

func (r *tokenReceiver) Listening() bool { return true }
func (r *tokenReceiver) Deliver(pkt Packet, _ float64) {
	tok := pkt.Payload.(*token)
	if tok.released {
		r.t.Errorf("node %d's frame was delivered after its payload was released", pkt.From)
	}
	tok.deliveries++
}

// TestBroadcastArgReleasesAfterItsLastEvent plays a storm in which every
// way a frame can be held shows up: carrier-sense retries (some of which
// find their sender asleep), collisions, deliveries to receivers that
// power down mid-flight, and fault drops, duplicates and delays that
// outlast the airtime. Frames that reach no one and frames with no range
// are released at once.
func TestBroadcastArgReleasesAfterItsLastEvent(t *testing.T) {
	field := geom.NewField(20, 20)
	positions := geom.UniformDeploy(field, 60, stats.NewRNG(3))
	engine := sim.NewEngine()
	m := NewMedium(DefaultConfig(), engine, geom.NewIndex(field, positions, 3), stats.NewRNG(4), newSinkRecorder())
	m.SetFaultInjector(&scriptedInjector{rng: stats.NewRNG(5)})
	for i := range positions {
		m.Attach(NodeID(i), &tokenReceiver{t: t})
	}
	var sent []*token
	releases := 0
	release := func(a any) {
		tok := a.(*token)
		if tok.released {
			t.Error("a payload was released twice")
		}
		tok.released = true
		releases++
	}

	script := stats.NewRNG(6)
	for i := 0; i < 2000; i++ {
		if i%50 == 0 {
			for id := range positions {
				m.SetListening(NodeID(id), script.Float64() < 0.85)
			}
		}
		from := NodeID(script.Uint64() % uint64(len(positions)))
		radius := 3.0
		if i%97 == 0 {
			radius = 0 // never sent: released before BroadcastArg returns
		}
		tok := &token{}
		sent = append(sent, tok)
		m.BroadcastArg(Packet{From: from, Size: 25, Range: radius, Payload: tok}, release)
		if radius == 0 && !tok.released {
			t.Fatal("a frame with no range was not released at once")
		}
		engine.Run(engine.Now() + script.Uniform(0, 0.012))
	}
	engine.Run(sim.Forever)

	if m.InFlight() != 0 || releases != len(sent) {
		t.Fatalf("%d events in flight, %d of %d payloads released after the drain", m.InFlight(), releases, len(sent))
	}
	delivered, unheard := 0, 0
	for _, tok := range sent {
		delivered += tok.deliveries
		if tok.deliveries == 0 {
			unheard++
		}
	}
	if _, n, _, _, _ := m.Stats(); uint64(delivered) != n || m.Deferred() == 0 || unheard == 0 || delivered < len(sent) {
		t.Fatalf("%d deliveries (medium counts %d), %d deferrals, %d frames heard by no one: the storm misses a case",
			delivered, n, m.Deferred(), unheard)
	}
}

// BenchmarkBroadcastReply is a REPLY's path on the simulator: the payload
// is a pooled *core.Reply that the medium hands back once the frame's last
// delivery has run, so a steady stream of REPLYs allocates nothing.
func BenchmarkBroadcastReply(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CSMAEnabled = false
	m, engine := benchMedium(cfg)
	var spare []*core.Reply
	release := func(a any) { spare = append(spare, a.(*core.Reply)) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r *core.Reply
		if k := len(spare); k > 0 {
			r, spare = spare[k-1], spare[:k-1]
		} else {
			r = new(core.Reply)
		}
		*r = core.Reply{From: core.NodeID(i % 64), RateEstimate: 0.02, DesiredRate: 0.02, TimeWorking: float64(i)}
		m.BroadcastArg(Packet{From: NodeID(i % 64), Size: 25, Range: 10, Payload: r}, release)
		engine.Run(engine.Now() + 1)
	}
}
