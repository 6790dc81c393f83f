package peasnet

import (
	"reflect"
	"testing"
	"time"

	"peas/internal/chaos"
	"peas/internal/core"
	"peas/internal/geom"
	"peas/internal/metrics"
	"peas/internal/stats"
)

// liveRun is what two runs of one seed on the virtual clock must share.
type liveRun struct {
	log      []stateChange
	totals   core.Stats
	counters map[string]uint64
	ends     []nodeEnd // each node's state at the end
}

// nodeEnd is one node's state: its protocol clock, protocol state with
// pending timers, RNG stream and remaining battery (-1 without one).
type nodeEnd struct {
	at     float64
	proto  core.ProtocolState
	rng    stats.RNGState
	joules float64
}

// endState reads n's state under its lock, so the read is consistent
// while the rest of the cluster runs.
func endState(n *Node) nodeEnd {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := nodeEnd{at: n.Now(), proto: n.proto.Snapshot(), rng: n.rng.State(), joules: -1}
	if n.battery != nil {
		e.joules = n.battery.Remaining(e.at)
	}
	return e
}

type stateChange struct {
	at    time.Duration
	id    int
	state core.State
}

// record points cfg's state observer at run.log. The log is appended from
// the nodes' event loops with no lock of its own: under -race this also
// checks that the virtual clock runs one loop at a time.
func record(cfg *ClusterConfig, vc *virtualClock, run *liveRun) {
	cfg.clk = vc
	cfg.OnState = func(id int, s core.State) {
		run.log = append(run.log, stateChange{vc.Now().Sub(virtualEpoch), id, s})
	}
}

// finish fills in run's end-of-run totals and node states.
func finish(c *Cluster, run *liveRun) {
	run.totals = c.TotalStats()
	for _, n := range c.Nodes {
		run.ends = append(run.ends, endState(n))
	}
}

// chaosCampaign is the live chaos campaign: 40 nodes with 500 J batteries
// on a 20 x 20 m field at scale 150, under 5 % loss, 5 % duplication and
// 20 % delay. Once the working set is stable within ±3, a working node
// crashes and, after 1 s down, restarts in place from its state at the
// crash instant. It must resume with its protocol history, the cluster
// must restabilise, and loss, duplication and delay must each fire.
func chaosCampaign(t *testing.T, seed int64) liveRun {
	t.Helper()
	const scale = 150
	counters := metrics.NewCounters()
	channel := chaos.NewChannel(seed, counters)
	channel.SetLoss(0.05)
	channel.SetDuplication(0.05)
	channel.SetDelay(0.2, 0.05)
	inj := NewChaosInjector(channel, scale)

	var run liveRun
	vc := newVirtualClock()
	tr := vc.inMemory()
	defer func() { _ = tr.Close() }()
	tr.SetFaultInjector(inj)
	cfg := ClusterConfig{
		Field:     geom.NewField(20, 20),
		N:         40,
		Protocol:  core.DefaultConfig(),
		TimeScale: scale,
		Seed:      seed,
		Battery:   &BatteryConfig{Joules: 500},
	}
	record(&cfg, vc, &run)
	c, err := NewCluster(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	const settle, timeout = 1500 * time.Millisecond, 6 * time.Second
	if !c.AwaitStable(3, settle, timeout) {
		t.Fatalf("working set did not stabilise within %v", timeout)
	}

	victim := -1
	for _, n := range c.Nodes {
		if n.State() == core.Working {
			victim = n.ID()
			break
		}
	}
	if victim < 0 {
		t.Fatal("no working node to crash")
	}
	restarted := c.Nodes[victim]
	pre := restarted.Stats()
	inj.With(func(ch *chaos.Channel) { ch.Counters().Add(chaos.CtrCrash, 1) })
	if err := c.CrashRestart(victim, time.Second); err != nil {
		t.Fatal(err)
	}
	inj.With(func(ch *chaos.Channel) { ch.Counters().Add(chaos.CtrRestarted, 1) })
	post := restarted.Stats()
	if restarted.State() != core.Working || post.Wakeups < pre.Wakeups || post.ProbesSent < pre.ProbesSent {
		t.Errorf("node %d rebooted fresh instead of resuming its state: state %v, pre %+v, post %+v",
			victim, restarted.State(), pre, post)
	}
	if !c.AwaitStable(3, settle, timeout) {
		t.Fatal("working set did not restabilise after the restart")
	}

	inj.With(func(*chaos.Channel) { run.counters = counters.Snapshot() })
	for _, want := range []string{chaos.CtrDropLoss, chaos.CtrDup, chaos.CtrDelay} {
		if run.counters[want] == 0 {
			t.Errorf("fault class %q never fired", want)
		}
	}
	finish(c, &run)
	return run
}

// bootToStable boots the 40-node cluster of TestClusterStabilizes and runs
// it until its working set is unchanged for half a second.
func bootToStable(t *testing.T, seed int64) liveRun {
	t.Helper()
	var run liveRun
	cfg := ClusterConfig{
		Field:     geom.NewField(20, 20),
		N:         40,
		Protocol:  core.DefaultConfig(),
		TimeScale: 100,
		Seed:      seed,
	}
	record(&cfg, newVirtualClock(), &run)
	c, err := NewCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if !c.AwaitStable(0, 500*time.Millisecond, 10*time.Second) {
		t.Fatalf("working set never stabilised; working=%d", c.WorkingCount())
	}
	finish(c, &run)
	return run
}

// TestLiveChaosCampaignReplays runs the live chaos campaign twice with one
// seed: both runs must pass its checks and agree exactly.
func TestLiveChaosCampaignReplays(t *testing.T) {
	requireReplay(t, func() liveRun { return chaosCampaign(t, 7) })
}

// TestClusterBootReplays: a boot-to-stable run is a function of its seed.
func TestClusterBootReplays(t *testing.T) {
	requireReplay(t, func() liveRun { return bootToStable(t, 7) })
}

func requireReplay(t *testing.T, run func() liveRun) {
	t.Helper()
	a := run()
	if t.Failed() {
		return
	}
	b := run()
	for i := range min(len(a.log), len(b.log)) {
		if a.log[i] != b.log[i] {
			t.Fatalf("state logs diverge at change %d: %+v vs %+v", i, a.log[i], b.log[i])
		}
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("state logs differ in length: %d vs %d", len(a.log), len(b.log))
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs of one seed differ:\n%+v\n%+v", a.totals, b.totals)
	}
	t.Logf("%d state changes, %d wakeups, channel %v", len(a.log), a.totals.Wakeups, a.counters)
}
