package node

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/radio"
	"peas/internal/stats"
)

// TestNewNetworkValidation: Config.Validate, which NewNetwork runs, refuses
// every section that is out of range or partly filled, naming the field.
func TestNewNetworkValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		field  string // what the error must name
	}{
		{"zero nodes", func(c *Config) { c.N = 0 }, "N=0"},
		{"bad protocol", func(c *Config) { c.Protocol.ProbingRange = -1 }, "probing range"},
		{"bad energy range", func(c *Config) { c.InitialEnergyMin = 10; c.InitialEnergyMax = 5 }, "InitialEnergyMax"},
		{"zero energy", func(c *Config) { c.InitialEnergyMin = 0; c.InitialEnergyMax = 0 }, "InitialEnergyMin"},
		{"positions mismatch", func(c *Config) { c.Positions = []geom.Point{{X: 1, Y: 1}} }, "Positions"},
		{"seeds mismatch", func(c *Config) { c.NodeSeeds = []int64{1} }, "NodeSeeds"},
		{"partial protocol", func(c *Config) { c.Protocol = core.Config{ProbingRange: 5} }, "initial rate"},
		{"partial radio", func(c *Config) { c.Radio = radio.Config{LossRate: 0.1} }, "Radio.BitsPerSecond"},
		{"zero range", func(c *Config) { c.Radio.MaxRange = 0 }, "Radio.MaxRange"},
		{"certain loss", func(c *Config) { c.Radio.LossRate = 1 }, "Radio.LossRate"},
		{"full irregularity", func(c *Config) { c.Radio.Irregularity = 1 }, "Radio.Irregularity"},
		{"negative backoff", func(c *Config) { c.Radio.CSMABackoffMax = -1 }, "Radio.CSMABackoffMax"},
		{"partial energy", func(c *Config) { c.Energy = energy.Profile{IdleW: 0.012} }, "Energy.TransmitW"},
		{"negative sleep", func(c *Config) { c.Energy.SleepW = -1 }, "Energy.SleepW"},
		{"infinite draw", func(c *Config) { c.Energy.IdleW = math.Inf(1) }, "Energy.IdleW"},
		{"empty field", func(c *Config) { c.Field.Height = 0 }, "Field.Height"},
		{"NaN field", func(c *Config) { c.Field.Width = math.NaN() }, "Field.Width"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(10, 1)
			tc.mutate(&cfg)
			if _, err := NewNetwork(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("NewNetwork error = %v, want one naming %s", err, tc.field)
			}
		})
	}
	// The defaults pass, and so does a free sleep draw.
	cfg := DefaultConfig(10, 1)
	cfg.Energy.SleepW = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate(defaults with SleepW 0) = %v", err)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() (uint64, float64, int) {
		net, err := NewNetwork(DefaultConfig(120, 77))
		if err != nil {
			t.Fatal(err)
		}
		net.Start()
		net.Run(1500)
		return net.TotalWakeups(), net.TotalConsumed(), net.WorkingCount()
	}
	w1, e1, c1 := run()
	w2, e2, c2 := run()
	if w1 != w2 || e1 != e2 || c1 != c2 {
		t.Errorf("same seed diverged: (%d, %v, %d) vs (%d, %v, %d)",
			w1, e1, c1, w2, e2, c2)
	}
}

func TestNetworkSeedsDiffer(t *testing.T) {
	netA, err := NewNetwork(DefaultConfig(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	netB, err := NewNetwork(DefaultConfig(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range netA.Nodes {
		if netA.Nodes[i].Pos() == netB.Nodes[i].Pos() {
			same++
		}
	}
	if same == len(netA.Nodes) {
		t.Error("different seeds produced identical deployments")
	}
}

// TestPeaSeparationIdealChannel checks the §3 "peas" property in the
// regime the analysis assumes: ideal probing (every PROBE is answered
// and every REPLY heard). With collisions disabled, any violation of the
// Rp separation is a protocol bug, not channel physics.
func TestPeaSeparationIdealChannel(t *testing.T) {
	cfg := DefaultConfig(200, 5)
	cfg.Radio.CollisionsEnabled = false
	cfg.Protocol.TurnoffEnabled = false
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	net.Run(2500)

	working := net.WorkingPositions()
	if len(working) < 20 {
		t.Fatalf("only %d working nodes", len(working))
	}
	violations := 0
	for i := range working {
		for j := i + 1; j < len(working); j++ {
			if working[i].Dist(working[j]) < cfg.Protocol.ProbingRange {
				violations++
			}
		}
	}
	// With an ideal channel the only possible violation is two probers
	// racing inside one probe window (neither is working yet, so
	// neither replies); at λ0=0.1 boot density a handful of races can
	// slip through.
	if violations > len(working)/20 {
		t.Errorf("%d working pairs closer than Rp among %d workers",
			violations, len(working))
	}
}

func TestFailedWorkerGetsReplaced(t *testing.T) {
	cfg := DefaultConfig(150, 9)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	net.Run(600) // past boot-up
	before := net.WorkingCount()
	if before == 0 {
		t.Fatal("no working nodes after boot")
	}

	// Kill every working node at t=600.
	for _, n := range net.Nodes {
		if n.Working() {
			n.Fail(InjectedFailure)
		}
	}
	if net.WorkingCount() != 0 {
		t.Fatal("kill failed")
	}

	// Each dead worker's neighborhood refills at the desired aggregate
	// probing rate λd = 0.02/s (mean 50 s to the first replacement), and
	// the set then densifies wakeup by wakeup toward the packing bound.
	net.Run(600 + 100)
	if got := net.WorkingCount(); got == 0 {
		t.Fatal("no replacement worker within 100 s")
	}
	net.Run(600 + 1500)
	after := net.WorkingCount()
	if after < before/2 {
		t.Errorf("replacement too weak: %d workers before, %d after 1500 s", before, after)
	}
}

func TestEnergyConservationNetworkWide(t *testing.T) {
	cfg := DefaultConfig(80, 13)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var initial float64
	for _, n := range net.Nodes {
		initial += n.Battery().Initial()
	}
	net.Start()
	net.Run(3000)
	now := net.Engine.Now()
	var consumed, remaining float64
	for _, n := range net.Nodes {
		consumed += n.Battery().Consumed(now)
		remaining += n.Battery().Remaining(now)
	}
	if math.Abs(consumed+remaining-initial) > 1e-6 {
		t.Errorf("energy leak: consumed %v + remaining %v != initial %v",
			consumed, remaining, initial)
	}
}

func TestDepletionDeathsScheduled(t *testing.T) {
	// With abundant redundancy, the first-generation workers deplete at
	// ~4500-5000 s; their deaths must be recorded with the right cause.
	cfg := DefaultConfig(100, 17)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	net.Run(5200)
	depleted := 0
	for _, n := range net.Nodes {
		if n.Alive() {
			continue
		}
		diedAt, cause := n.DiedAt()
		if cause != Depletion {
			t.Errorf("node %d died of %v", n.ID(), cause)
		}
		if diedAt < 4000 || diedAt > 5200 {
			t.Errorf("node %d depleted at %v, outside the battery window", n.ID(), diedAt)
		}
		depleted++
	}
	if depleted == 0 {
		t.Error("no depletion deaths by t=5200")
	}
}

// TestObserverHooks subscribes three observers with every hook and drives
// each kind of event: each event must reach the three in the order they
// subscribed.
func TestObserverHooks(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(30, 19))
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string][]int{}
	for i := 0; i < 3; i++ {
		log := func(kind string) { calls[kind] = append(calls[kind], i) }
		net.Observe(Observer{
			State:         func(core.NodeID, core.State) { log("state") },
			Death:         func(core.NodeID, DeathCause) { log("death") },
			Revive:        func(core.NodeID) { log("revive") },
			Deliver:       func(core.NodeID, radio.Packet, float64) { log("deliver") },
			WorkingChange: func(core.NodeID, bool) { log("working") },
		})
	}
	net.Start()
	net.Run(100)
	net.Nodes[0].Crash()
	net.Nodes[0].Revive()
	net.PickAlive(stats.NewRNG(1), nil).Fail(InjectedFailure)
	net.Run(200)
	for kind, n := range map[string]int{"state": 0, "death": 2, "revive": 1, "deliver": 0, "working": 0} {
		got := calls[kind]
		if len(got) == 0 || n > 0 && len(got) != 3*n {
			t.Errorf("%s: %d calls to 3 subscribers, want %d events each (0: any)", kind, len(got), n)
		}
		for j, i := range got {
			if i != j%3 {
				t.Fatalf("%s: call %d went to subscriber %d, want %d", kind, j, i, j%3)
			}
		}
	}
}

// TestWorkingChangeHookTracksWorkingSet replays a run with failures and
// revives while mirroring the WorkingChange hook into a shadow set; at
// several instants the shadow must equal a fresh Working() scan, and the
// hook must be strictly edge-triggered (no repeated same-direction events).
func TestWorkingChangeHookTracksWorkingSet(t *testing.T) {
	cfg := DefaultConfig(80, 31)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]bool, cfg.N)
	flips := 0
	net.Observe(Observer{WorkingChange: func(id core.NodeID, working bool) {
		if shadow[id] == working {
			t.Fatalf("node %d: repeated WorkingChange(%v) without an opposite edge", id, working)
		}
		shadow[id] = working
		flips++
	}})
	verify := func(at string) {
		t.Helper()
		for i, n := range net.Nodes {
			if shadow[i] != n.Working() {
				t.Fatalf("%s: node %d shadow=%v Working()=%v", at, i, shadow[i], n.Working())
			}
		}
	}
	net.Start()
	rng := stats.NewRNG(5)
	for _, until := range []float64{50, 200, 600} {
		net.Run(until)
		verify(fmt.Sprintf("t=%v", until))
		net.PickAlive(rng, nil).Fail(InjectedFailure)
		verify("after injected failure")
	}
	// Crash a working node and revive it: the hook must see both edges.
	var victim *Node
	for _, n := range net.Nodes {
		if n.Working() {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Fatal("no working node to crash")
	}
	victim.Crash()
	verify("after crash")
	if !victim.Revive() {
		t.Fatal("revive failed")
	}
	net.Run(net.Engine.Now() + 300)
	verify("after revive")
	if flips == 0 {
		t.Error("no working transitions observed")
	}
}

// TestFailRandomAliveExhaustion fails one uniformly picked alive node at a
// time: each pick is a node still alive, and once none is left PickAlive
// returns nil.
func TestFailRandomAliveExhaustion(t *testing.T) {
	cfg := DefaultConfig(3, 23)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	rng := stats.NewRNG(2)
	seen := map[core.NodeID]bool{}
	for i := 0; i < 3; i++ {
		victim := net.PickAlive(rng, nil)
		if victim == nil || seen[victim.ID()] {
			t.Fatalf("bad victim %v (seen=%v)", victim, seen)
		}
		victim.Fail(InjectedFailure)
		seen[victim.ID()] = true
	}
	if victim := net.PickAlive(rng, nil); victim != nil {
		t.Errorf("exhausted network returned victim %d", victim.ID())
	}
}

func TestChargeExtraKillsOnOverdraw(t *testing.T) {
	cfg := DefaultConfig(5, 29)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	victim := net.Nodes[0]
	net.ChargeExtra(victim.ID(), energy.DataTransmit, 1e6)
	if victim.Alive() {
		t.Error("overdrawn node still alive")
	}
	if _, cause := victim.DiedAt(); cause != Depletion {
		t.Errorf("cause = %v", cause)
	}
	// Charging a dead node is a no-op.
	net.ChargeExtra(victim.ID(), energy.DataTransmit, 1)
}

// TestChargeModeIsTheCharges: a profile may draw the same power to
// transmit and to receive, and a radio charge is still filed under the
// mode it is for, not the one its wattage happens to match.
func TestChargeModeIsTheCharges(t *testing.T) {
	cfg := DefaultConfig(2, 3)
	cfg.Energy.ReceiveW = cfg.Energy.TransmitW
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start() // both nodes sleep, so the whole draw is extra
	sink := &energyAdapter{net: net}
	sink.SpendTx(0, 0.01)
	sink.SpendRx(1, 0.01)
	now := net.Engine.Now()
	for _, c := range []struct {
		id          int
		mode, other energy.Mode
	}{{0, energy.Transmit, energy.Receive}, {1, energy.Receive, energy.Transmit}} {
		b := net.Nodes[c.id].Battery()
		if b.ConsumedIn(now, c.mode) <= 0 || b.ConsumedIn(now, c.other) != 0 {
			t.Errorf("node %d: %v J under %v and %v J under %v; want the charge under %v only",
				c.id, b.ConsumedIn(now, c.mode), c.mode, b.ConsumedIn(now, c.other), c.other, c.mode)
		}
	}
}

// TestDepletionPastTwoToTheTwentySeconds: at now = 2^21 s, half an ulp of
// the clock is about 2.3e-10 s, and 2e-12 J drains at 12 mW idle in
// 1.7e-10 s, so the depletion deadline rounds to now. The node must die
// of depletion there instead of re-arming the event at the same instant
// forever.
func TestDepletionPastTwoToTheTwentySeconds(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	now := math.Ldexp(1, 21)
	net.Engine.SetNow(now)
	// The battery is settled at now before Start, so booting at 2^21 s
	// does not drain it over the elapsed time; then the node idles.
	n := net.Nodes[0]
	n.battery.Restore(energy.BatteryState{Initial: 60, Remaining: 2e-12, Mode: energy.Sleep, LastT: now})
	net.Start()
	n.battery.SetMode(now, energy.Idle)
	if at := n.battery.DepletionTime(now); !n.Alive() || at != now {
		t.Fatalf("set-up: alive %v, deadline %v; want alive with the deadline rounded to now %v", n.Alive(), at, now)
	}
	n.rescheduleDeath()
	for steps := 0; n.Alive(); steps++ {
		if steps == 100 || !net.Engine.Step() {
			t.Fatalf("node still alive after %d engine steps at t=%v", steps, net.Engine.Now())
		}
	}
	if diedAt, cause := n.DiedAt(); cause != Depletion || diedAt != now {
		t.Errorf("died at %v of %v, want depletion at %v", diedAt, cause, now)
	}
}

func TestProtocolEnergyPositiveAndBounded(t *testing.T) {
	cfg := DefaultConfig(100, 31)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	net.Run(2000)
	pe := net.ProtocolEnergy()
	total := net.TotalConsumed()
	if pe <= 0 {
		t.Error("protocol energy should be positive")
	}
	if pe > total*0.05 {
		t.Errorf("protocol energy %v exceeds 5%% of total %v", pe, total)
	}
}

// TestRestoreNodesRejectsUnknownBatteryMode: the battery's per-mode ledger
// is an array indexed by mode, so a snapshot carrying a mode outside
// Sleep..DataTransmit must be refused where it enters the model, not
// found by the first charge.
func TestRestoreNodesRejectsUnknownBatteryMode(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	states := net.SnapshotNodes()
	if err := net.RestoreNodes(states); err != nil {
		t.Fatalf("a network's own snapshot: %v", err)
	}
	for _, mode := range []energy.Mode{0, energy.DataTransmit + 1} {
		bad := net.SnapshotNodes()
		bad[4].Battery.Mode = mode
		if err := net.RestoreNodes(bad); err == nil {
			t.Errorf("battery mode %d restored without error", int(mode))
		}
	}
}
