package core

import (
	"testing"
	"testing/quick"

	"peas/internal/stats"
)

// invariantPlatform wraps fakePlatform with per-call invariant checks.
type invariantPlatform struct {
	*fakePlatform
	t     *testing.T
	proto *Protocol
}

func (p *invariantPlatform) Broadcast(size int, radius float64, payload any) {
	// Invariant: only probing nodes send PROBEs; only working nodes
	// send REPLYs; dead/sleeping nodes send nothing.
	switch payload.(type) {
	case Probe:
		if p.proto.State() != Probing {
			p.t.Errorf("PROBE sent in state %v", p.proto.State())
		}
	case Reply:
		if p.proto.State() != Working {
			p.t.Errorf("REPLY sent in state %v", p.proto.State())
		}
	}
	if radius <= 0 || size <= 0 {
		p.t.Errorf("broadcast with size=%d radius=%v", size, radius)
	}
	p.fakePlatform.Broadcast(size, radius, payload)
}

func (p *invariantPlatform) BroadcastReply(size int, radius float64, msg Reply) {
	p.Broadcast(size, radius, msg)
}

// TestProtocolInvariantsUnderRandomTraffic drives one node with random
// message sequences and checks global invariants after every step:
//
//   - λ stays within [MinRate, MaxRate];
//   - no transmissions from sleeping or dead nodes (checked on every
//     Broadcast above);
//   - the state is always one of the four legal ones;
//   - a failed node stays dead.
func TestProtocolInvariantsUnderRandomTraffic(t *testing.T) {
	err := quick.Check(func(seed int64, script []uint8) bool {
		f := newFakePlatform(seed)
		inv := &invariantPlatform{fakePlatform: f, t: t}
		cfg := DefaultConfig()
		p := New(1, cfg, inv)
		inv.proto = p
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		p.Start()
		rng := stats.NewRNG(seed)

		failed := false
		for _, op := range script {
			switch op % 6 {
			case 0:
				f.engine.Run(f.engine.Now() + rng.Uniform(0, 30))
			case 1:
				p.HandleMessage(Probe{From: NodeID(2 + op%5), Seq: int(op % 3)}, rng.Uniform(0, 3))
			case 2:
				p.HandleMessage(Reply{
					From:         NodeID(2 + op%5),
					RateEstimate: rng.Uniform(0, 2),
					DesiredRate:  cfg.DesiredRate,
					TimeWorking:  rng.Uniform(0, 5000),
				}, rng.Uniform(0, 3))
			case 3:
				f.engine.Step()
			case 4:
				if op%16 == 4 { // fail occasionally
					p.Fail()
					failed = true
				}
			case 5:
				p.HandleMessage("garbage", 1) // unknown payloads ignored
			}

			// Global invariants.
			switch p.State() {
			case Sleeping, Probing, Working, Dead:
			default:
				t.Errorf("illegal state %v", p.State())
				return false
			}
			if failed && p.State() != Dead {
				t.Error("failed node resurrected")
				return false
			}
			if r := p.Rate(); r < cfg.MinRate-1e-15 || r > cfg.MaxRate+1e-15 {
				t.Errorf("rate %v escaped [%v, %v]", r, cfg.MinRate, cfg.MaxRate)
				return false
			}
		}
		// Drain: no pending event may violate invariants either.
		f.engine.Run(f.engine.Now() + 1000)
		st := p.Stats()
		if st.TimeSleeping < 0 || st.TimeProbing < 0 || st.TimeWorking < 0 {
			t.Errorf("negative state time: %+v", st)
			return false
		}
		return !t.Failed()
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

// TestProtocolStateTimesSumToClock checks the accounting identity under
// random schedules: sleeping + probing + working time equals elapsed
// time until death.
func TestProtocolStateTimesSumToClock(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		f := newFakePlatform(seed)
		p := New(1, DefaultConfig(), f)
		p.Start()
		rng := stats.NewRNG(seed)
		for i := 0; i < 20; i++ {
			f.engine.Run(f.engine.Now() + rng.Uniform(0, 50))
			if rng.Float64() < 0.3 {
				p.HandleMessage(Reply{From: 2, RateEstimate: 0.02, DesiredRate: 0.02}, 1)
			}
		}
		st := p.Stats()
		total := st.TimeSleeping + st.TimeProbing + st.TimeWorking
		now := f.engine.Now()
		return total > now-1e-6 && total < now+1e-6
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}
