package core

import (
	"testing"

	"peas/internal/sim"
	"peas/internal/stats"
)

// fakePlatform drives a Protocol on a private simulation engine and
// records its broadcasts and state changes.
type fakePlatform struct {
	engine *sim.Engine
	rng    *stats.RNG
	sent   []any
	states []State
}

var _ Platform = (*fakePlatform)(nil)

func newFakePlatform(seed int64) *fakePlatform {
	return &fakePlatform{engine: sim.NewEngine(), rng: stats.NewRNG(seed)}
}

func (f *fakePlatform) Now() float64 { return f.engine.Now() }
func (f *fakePlatform) AtArg(at float64, fn func(any), arg any) {
	f.engine.AtArg(at, fn, arg)
}
func (f *fakePlatform) Broadcast(_ int, _ float64, payload any) {
	f.sent = append(f.sent, payload)
}
func (f *fakePlatform) BroadcastReply(size int, radius float64, msg Reply) {
	f.Broadcast(size, radius, msg)
}
func (f *fakePlatform) SetState(s State) { f.states = append(f.states, s) }
func (f *fakePlatform) Rand() *stats.RNG { return f.rng }

func (f *fakePlatform) probes() []Probe {
	var out []Probe
	for _, p := range f.sent {
		if pr, ok := p.(Probe); ok {
			out = append(out, pr)
		}
	}
	return out
}

func (f *fakePlatform) replies() []Reply {
	var out []Reply
	for _, p := range f.sent {
		if r, ok := p.(Reply); ok {
			out = append(out, r)
		}
	}
	return out
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{Sleeping, "sleeping"}, {Probing, "probing"}, {Working, "working"},
		{Dead, "dead"}, {State(42), "State(42)"},
	}
	for _, tc := range tests {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d: got %q want %q", int(tc.s), got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"zero probing range", func(c *Config) { c.ProbingRange = 0 }, false},
		{"negative initial rate", func(c *Config) { c.InitialRate = -1 }, false},
		{"zero desired rate", func(c *Config) { c.DesiredRate = 0 }, false},
		{"zero k", func(c *Config) { c.EstimatorK = 0 }, false},
		{"zero probes", func(c *Config) { c.NumProbes = 0 }, false},
		{"zero window", func(c *Config) { c.ProbeWindow = 0 }, false},
		{"zero packet", func(c *Config) { c.PacketSize = 0 }, false},
		{"jitter beyond window", func(c *Config) { c.ReplyJitterMax = 1 }, false},
		{"inverted clamp", func(c *Config) { c.MinRate = 2; c.MaxRate = 1 }, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestConfigValidateFillsDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.ReplyJitterMax <= 0 || cfg.ReplyJitterMax >= cfg.ProbeWindow {
		t.Errorf("jitter default %v", cfg.ReplyJitterMax)
	}
	if cfg.MinRate <= 0 || cfg.MaxRate <= cfg.MinRate {
		t.Errorf("rate clamp [%v, %v]", cfg.MinRate, cfg.MaxRate)
	}
}

func TestLoneNodeStartsWorking(t *testing.T) {
	f := newFakePlatform(1)
	p := New(1, DefaultConfig(), f)
	p.Start()
	if p.State() != Sleeping {
		t.Fatalf("boot state = %v", p.State())
	}
	f.engine.Run(1000)
	if p.State() != Working {
		t.Fatalf("lone node should be working, is %v", p.State())
	}
	if got := len(f.probes()); got != DefaultNumProbes {
		t.Errorf("sent %d probes, want %d", got, DefaultNumProbes)
	}
	st := p.Stats()
	if st.Wakeups != 1 || st.ProbesSent != uint64(DefaultNumProbes) {
		t.Errorf("stats %+v", st)
	}
	if st.TimeWorking <= 0 {
		t.Errorf("time working %v", st.TimeWorking)
	}
}

func TestProberSleepsOnReply(t *testing.T) {
	f := newFakePlatform(2)
	p := New(1, DefaultConfig(), f)
	p.Start()
	// Run until the node enters Probing, then inject a REPLY.
	for p.State() != Probing {
		if !f.engine.Step() {
			t.Fatal("never probed")
		}
	}
	p.HandleMessage(Reply{From: 2, RateEstimate: 0.04, DesiredRate: 0.02}, 2)
	// Cross the probe-window end, but stay well before the next wakeup.
	f.engine.Run(f.engine.Now() + 0.15)
	if p.State() != Sleeping {
		t.Fatalf("prober that heard a REPLY should sleep, is %v", p.State())
	}
	// Adaptive Sleeping: λ = λ0·λd/λ̂ = 0.1·0.02/0.04 = 0.05.
	if got := p.Rate(); got != 0.05 {
		t.Errorf("adapted rate = %v, want 0.05", got)
	}
	if p.Stats().RateUpdates != 1 || p.Stats().RepliesHeard != 1 {
		t.Errorf("stats %+v", p.Stats())
	}
}

func TestProberUsesLargestEstimate(t *testing.T) {
	// §4: with several working neighbors, adjust by the largest
	// measurement, yielding the lowest probing rate.
	f := newFakePlatform(3)
	p := New(1, DefaultConfig(), f)
	p.Start()
	for p.State() != Probing {
		if !f.engine.Step() {
			t.Fatal("never probed")
		}
	}
	p.HandleMessage(Reply{From: 2, RateEstimate: 0.04, DesiredRate: 0.02}, 2)
	p.HandleMessage(Reply{From: 3, RateEstimate: 0.10, DesiredRate: 0.02}, 1)
	p.HandleMessage(Reply{From: 4, RateEstimate: 0.02, DesiredRate: 0.02}, 2.5)
	f.engine.Run(f.engine.Now() + 0.15)
	// λ = 0.1·0.02/0.10 = 0.02.
	if got := p.Rate(); got != 0.02 {
		t.Errorf("rate = %v, want 0.02 (largest λ̂ wins)", got)
	}
}

func TestProberKeepsRateWithoutEstimate(t *testing.T) {
	f := newFakePlatform(4)
	p := New(1, DefaultConfig(), f)
	p.Start()
	for p.State() != Probing {
		if !f.engine.Step() {
			t.Fatal("never probed")
		}
	}
	p.HandleMessage(Reply{From: 2, RateEstimate: 0, DesiredRate: 0.02}, 2)
	f.engine.Run(f.engine.Now() + 0.15)
	if p.State() != Sleeping {
		t.Fatalf("state %v", p.State())
	}
	if got := p.Rate(); got != DefaultInitialRate {
		t.Errorf("rate = %v, want unchanged %v", got, DefaultInitialRate)
	}
}

func TestRateClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinRate = 0.01
	cfg.MaxRate = 0.5
	f := newFakePlatform(5)
	p := New(1, cfg, f)
	p.Start()
	for p.State() != Probing {
		if !f.engine.Step() {
			t.Fatal("never probed")
		}
	}
	// Enormous estimate: would push λ to ~1e-5; clamps to MinRate.
	p.HandleMessage(Reply{From: 2, RateEstimate: 1000, DesiredRate: 0.02}, 2)
	f.engine.Run(f.engine.Now() + 0.15)
	if got := p.Rate(); got != 0.01 {
		t.Errorf("rate = %v, want clamped to 0.01", got)
	}
}

func TestWorkerRepliesToProbe(t *testing.T) {
	f := newFakePlatform(6)
	p := New(1, DefaultConfig(), f)
	p.Start()
	f.engine.Run(1000) // lone node: works
	if p.State() != Working {
		t.Fatal("not working")
	}
	nSent := len(f.sent)
	p.HandleMessage(Probe{From: 9, Seq: 0}, 2)
	f.engine.Run(f.engine.Now() + 1)
	replies := f.replies()
	if len(replies) != 1 {
		t.Fatalf("worker sent %d replies, want 1 (total sends %d -> %d)",
			len(replies), nSent, len(f.sent))
	}
	r := replies[0]
	if r.From != 1 || r.DesiredRate != DefaultDesiredRate {
		t.Errorf("reply %+v", r)
	}
	if r.TimeWorking <= 0 {
		t.Errorf("reply TimeWorking = %v", r.TimeWorking)
	}
}

func TestWorkerCoalescesReplies(t *testing.T) {
	f := newFakePlatform(7)
	p := New(1, DefaultConfig(), f)
	p.Start()
	f.engine.Run(1000)
	if p.State() != Working {
		t.Fatal("not working")
	}
	// A burst of probes (one wakeup's 3 copies + a concurrent prober)
	// must produce exactly one REPLY broadcast.
	p.HandleMessage(Probe{From: 9, Seq: 0}, 2)
	p.HandleMessage(Probe{From: 9, Seq: 1}, 2)
	p.HandleMessage(Probe{From: 9, Seq: 2}, 2)
	p.HandleMessage(Probe{From: 8, Seq: 0}, 1)
	f.engine.Run(f.engine.Now() + 1)
	if got := len(f.replies()); got != 1 {
		t.Errorf("coalescing failed: %d replies", got)
	}
	// After the pending reply went out, a new probe gets a new reply.
	p.HandleMessage(Probe{From: 7, Seq: 0}, 1)
	f.engine.Run(f.engine.Now() + 1)
	if got := len(f.replies()); got != 2 {
		t.Errorf("second probe burst: %d replies, want 2", got)
	}
}

func TestSleepingNodeIgnoresMessages(t *testing.T) {
	f := newFakePlatform(8)
	p := New(1, DefaultConfig(), f)
	p.Start()
	p.HandleMessage(Probe{From: 9}, 1)
	p.HandleMessage(Reply{From: 9, RateEstimate: 5}, 1)
	if len(f.sent) != 0 {
		t.Error("sleeping node transmitted")
	}
	if p.Rate() != DefaultInitialRate {
		t.Error("sleeping node adjusted its rate")
	}
}

func TestTurnoffYoungerWorkerYields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TurnoffEnabled = true
	f := newFakePlatform(9)
	p := New(1, cfg, f)
	p.Start()
	f.engine.Run(1000)
	if p.State() != Working {
		t.Fatal("not working")
	}
	// A REPLY from a longer-working node within Rp: this node yields.
	older := p.TimeWorking() + 100
	p.HandleMessage(Reply{From: 2, RateEstimate: 0.02, TimeWorking: older}, 2)
	if p.State() != Sleeping {
		t.Errorf("younger worker should yield, is %v", p.State())
	}
	if p.Stats().Turnoffs != 1 {
		t.Errorf("turnoffs = %d", p.Stats().Turnoffs)
	}
}

func TestTurnoffElderWorkerStays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TurnoffEnabled = true
	f := newFakePlatform(10)
	p := New(1, cfg, f)
	p.Start()
	f.engine.Run(1000)
	if p.State() != Working {
		t.Fatal("not working")
	}
	p.HandleMessage(Reply{From: 2, RateEstimate: 0.02, TimeWorking: 0.0001}, 2)
	if p.State() != Working {
		t.Errorf("elder worker yielded to a younger one")
	}
	// Own replies must never turn the node off.
	p.HandleMessage(Reply{From: 1, RateEstimate: 0.02, TimeWorking: 1e9}, 0)
	if p.State() != Working {
		t.Error("node turned itself off")
	}
}

func TestTurnoffDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TurnoffEnabled = false
	f := newFakePlatform(11)
	p := New(1, cfg, f)
	p.Start()
	f.engine.Run(1000)
	p.HandleMessage(Reply{From: 2, RateEstimate: 0.02, TimeWorking: 1e9}, 2)
	if p.State() != Working {
		t.Error("turnoff fired while disabled")
	}
}

func TestFailSilencesNode(t *testing.T) {
	f := newFakePlatform(12)
	p := New(1, DefaultConfig(), f)
	p.Start()
	f.engine.Run(1000)
	sent := len(f.sent)
	p.Fail()
	if p.State() != Dead {
		t.Fatalf("state %v", p.State())
	}
	p.Fail() // idempotent
	p.HandleMessage(Probe{From: 9}, 1)
	f.engine.Run(f.engine.Now() + 5000)
	if len(f.sent) != sent {
		t.Error("dead node transmitted")
	}
	if p.TimeWorking() != 0 {
		t.Error("dead node reports time working")
	}
}

func TestStaleCallbacksDropped(t *testing.T) {
	// A node that transitions while callbacks are pending must not
	// execute them: kill the node right after it starts probing and
	// ensure the probe-window expiry does not promote it.
	f := newFakePlatform(13)
	p := New(1, DefaultConfig(), f)
	p.Start()
	for p.State() != Probing {
		if !f.engine.Step() {
			t.Fatal("never probed")
		}
	}
	p.Fail()
	f.engine.Run(f.engine.Now() + 100)
	if p.State() != Dead {
		t.Errorf("stale endProbe resurrected the node: %v", p.State())
	}
}

func TestWakeupsFollowConfiguredRate(t *testing.T) {
	// With REPLYs always answering (simulated by feeding a reply per
	// probe round), a node wakes at its configured rate on average.
	cfg := DefaultConfig()
	f := newFakePlatform(14)
	p := New(1, cfg, f)
	// Answer every probe instantly so the node always goes back to
	// sleep with an estimate equal to λd (rate stays λ0).
	go func() {}() // no concurrency: replies injected via engine hook below
	p.Start()
	const horizon = 2000.0
	for f.engine.Now() < horizon {
		if !f.engine.Step() {
			break
		}
		if p.State() == Probing {
			p.HandleMessage(Reply{From: 2, RateEstimate: cfg.DesiredRate, DesiredRate: cfg.DesiredRate}, 1)
		}
	}
	wakeups := float64(p.Stats().Wakeups)
	want := horizon * cfg.InitialRate // λ stays at λ0 since λ̂ == λd... rate: λ·λd/λ̂ = λ
	if wakeups < want*0.6 || wakeups > want*1.4 {
		t.Errorf("wakeups = %v over %v s, want ≈ %v", wakeups, horizon, want)
	}
}

func TestStatsTimeAccounting(t *testing.T) {
	f := newFakePlatform(15)
	p := New(1, DefaultConfig(), f)
	p.Start()
	f.engine.Run(500)
	st := p.Stats()
	total := st.TimeSleeping + st.TimeProbing + st.TimeWorking
	if total < 499 || total > 501 {
		t.Errorf("state times sum to %v, want ≈ 500", total)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(1, Config{}, newFakePlatform(1))
}

// TestResumeTimersFireAtRecordedDeadline restores a sleeping node mid-run
// and checks that its wakeup fires at exactly the recorded deadline. This
// pair of times is one where re-arming through the relative delay
// now+(at-now) rounds the deadline one ulp late.
func TestResumeTimersFireAtRecordedDeadline(t *testing.T) {
	const now, at = 0.07282536737797862, 16.183403123027393
	f := newFakePlatform(16)
	f.engine.SetNow(now)
	p := New(1, DefaultConfig(), f)
	st := p.Snapshot()
	st.State, st.StateSince = Sleeping, now
	st.Timers = []TimerRec{{Kind: TimerWakeup, At: at}}
	p.RestoreState(st)
	p.ResumeTimers(st.Timers)
	if !f.engine.Step() {
		t.Fatal("no timer armed")
	}
	if p.State() != Probing || f.engine.Now() != at {
		t.Errorf("wakeup fired at %v in state %v, want %v in probing", f.engine.Now(), p.State(), at)
	}
}
