package core

import (
	"testing"

	"peas/internal/geom"
	"peas/internal/sim"
	"peas/internal/stats"
)

// miniNet wires several Protocol instances over an ideal instantaneous
// medium (perfect delivery within Rp, no airtime, no losses) on one
// engine. It tests protocol-level emergent behaviour with no radio
// physics in the way.
type miniNet struct {
	engine    *sim.Engine
	positions []geom.Point
	protos    []*Protocol
	platforms []*miniPlatform
}

type miniPlatform struct {
	net *miniNet
	id  int
	rng *stats.RNG
}

var _ Platform = (*miniPlatform)(nil)

func (p *miniPlatform) Now() float64     { return p.net.engine.Now() }
func (p *miniPlatform) SetState(State)   {}
func (p *miniPlatform) Rand() *stats.RNG { return p.rng }
func (p *miniPlatform) AtArg(at float64, fn func(any), arg any) {
	p.net.engine.AtArg(at, fn, arg)
}
func (p *miniPlatform) BroadcastReply(size int, radius float64, msg Reply) {
	p.Broadcast(size, radius, msg)
}

func (p *miniPlatform) Broadcast(_ int, radius float64, payload any) {
	from := p.net.positions[p.id]
	for i, proto := range p.net.protos {
		if i == p.id || proto.State() == Dead {
			continue
		}
		// Sleeping nodes cannot receive.
		if proto.State() == Sleeping {
			continue
		}
		d := from.Dist(p.net.positions[i])
		if d <= radius {
			// Instantaneous, loss-free delivery.
			proto.HandleMessage(payload, d)
		}
	}
}

func newMiniNet(positions []geom.Point, cfg Config, seed int64) *miniNet {
	net := &miniNet{
		engine:    sim.NewEngine(),
		positions: positions,
	}
	rng := stats.NewRNG(seed)
	for i := range positions {
		p := &miniPlatform{net: net, id: i, rng: rng.Split()}
		net.platforms = append(net.platforms, p)
		net.protos = append(net.protos, New(NodeID(i), cfg, p))
	}
	return net
}

func (n *miniNet) start()            { forEach(n.protos, (*Protocol).Start) }
func (n *miniNet) run(until float64) { n.engine.Run(until) }
func (n *miniNet) working() (out []int) {
	for i, p := range n.protos {
		if p.State() == Working {
			out = append(out, i)
		}
	}
	return out
}

func forEach(ps []*Protocol, fn func(*Protocol)) {
	for _, p := range ps {
		fn(p)
	}
}

func TestMiniNetOneWorkerPerRegion(t *testing.T) {
	// Three nodes within one Rp region: exactly one must end up working.
	positions := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	net := newMiniNet(positions, DefaultConfig(), 3)
	net.start()
	net.run(500)
	if got := net.working(); len(got) != 1 {
		t.Errorf("working = %v, want exactly one", got)
	}
}

func TestMiniNetDistantRegionsBothWork(t *testing.T) {
	// Two nodes 5 m apart (> Rp = 3): both must work.
	positions := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	net := newMiniNet(positions, DefaultConfig(), 5)
	net.start()
	net.run(500)
	if got := net.working(); len(got) != 2 {
		t.Errorf("working = %v, want both", got)
	}
}

func TestMiniNetReplacementChain(t *testing.T) {
	// Five co-located nodes: kill the worker repeatedly; each time a
	// sleeper must take over, until the region is exhausted.
	positions := make([]geom.Point, 5)
	for i := range positions {
		positions[i] = geom.Point{X: float64(i) * 0.5, Y: 0}
	}
	net := newMiniNet(positions, DefaultConfig(), 7)
	net.start()
	net.run(300)

	for round := 0; round < 5; round++ {
		workers := net.working()
		if len(workers) != 1 {
			t.Fatalf("round %d: working = %v, want one", round, workers)
		}
		net.protos[workers[0]].Fail()
		// Sleepers have adapted (possibly very low) rates; wait in
		// slices until a replacement emerges or the region is out of
		// alive nodes. Later generations can carry rates around 1e-4
		// (mean sleep ~10^4 s), so the allowance is generous.
		alive := 0
		for _, p := range net.protos {
			if p.State() != Dead {
				alive++
			}
		}
		for waited := 0; waited < 100 && len(net.working()) == 0 && alive > 0; waited++ {
			net.run(net.engine.Now() + 2000)
		}
	}
	if got := net.working(); len(got) != 0 {
		t.Errorf("after exhausting all nodes, working = %v", got)
	}
	for i, p := range net.protos {
		if p.State() != Dead && p.State() != Sleeping {
			t.Errorf("node %d in state %v after exhaustion", i, p.State())
		}
	}
}

func TestMiniNetAggregateRateConverges(t *testing.T) {
	// One worker with many sleepers: after enough probe rounds, the
	// sleepers' aggregate rate should hover near λd.
	cfg := DefaultConfig()
	positions := []geom.Point{{X: 0, Y: 0}}
	for i := 0; i < 12; i++ {
		positions = append(positions, geom.Point{X: 0.5 + 0.1*float64(i), Y: 0.5})
	}
	net := newMiniNet(positions, cfg, 11)
	// Make node 0 the worker by booting it first.
	net.protos[0].Start()
	net.run(200)
	if net.protos[0].State() != Working {
		t.Fatal("node 0 did not become the worker")
	}
	for _, p := range net.protos[1:] {
		p.Start()
	}
	net.run(20000)

	var aggregate float64
	for _, p := range net.protos[1:] {
		if p.State() == Sleeping {
			aggregate += p.Rate()
		}
	}
	// The measured aggregate fluctuates around λd (paper §2.2.1);
	// accept a factor-3 band after convergence.
	if aggregate < cfg.DesiredRate/3 || aggregate > cfg.DesiredRate*3 {
		t.Errorf("aggregate sleeper rate %v, want ≈ λd = %v", aggregate, cfg.DesiredRate)
	}
}

func TestMiniNetTurnoffResolvesDoubleWorkers(t *testing.T) {
	// Force two workers into one region by booting them in isolation,
	// then "moving" them together is impossible — instead boot both
	// simultaneously with probing disabled interference: with an ideal
	// medium, simultaneous probe windows can double-promote. Emulate
	// the §4 resolution by injecting each other's REPLYs.
	cfg := DefaultConfig()
	cfg.TurnoffEnabled = true
	positions := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	net := newMiniNet(positions, cfg, 13)
	// Promote both directly through the engine: start them at the same
	// instant so both probe before either works.
	net.protos[0].Start()
	net.protos[1].Start()
	// Find a moment when both work; if the race never happens, force it
	// by failing nothing and just checking the invariant resolution
	// path via synthetic REPLYs.
	net.run(2000)
	w := net.working()
	if len(w) == 2 {
		// The turnoff should have resolved this already via organic
		// REPLY traffic; nudge with one more probing round.
		net.run(net.engine.Now() + 5000)
		if len(net.working()) == 2 {
			t.Error("two workers within Rp persisted despite turnoff")
		}
		return
	}
	// Organic case: only one worker — inject a synthetic older REPLY to
	// the worker and verify it yields.
	if len(w) != 1 {
		t.Fatalf("working = %v", w)
	}
	worker := net.protos[w[0]]
	worker.HandleMessage(Reply{From: 99, RateEstimate: 0.02,
		TimeWorking: worker.TimeWorking() + 1000}, 2)
	if worker.State() != Sleeping {
		t.Errorf("worker did not yield to an older one: %v", worker.State())
	}
}
