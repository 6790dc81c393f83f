// Package experiment reproduces the paper's evaluation (§5): one runner
// per figure/table plus the ablation studies called out in DESIGN.md. All
// experiments are deterministic functions of their options' seed.
package experiment

import (
	"fmt"
	"math"

	"peas/internal/chaos"
	"peas/internal/checkpoint"
	"peas/internal/core"
	"peas/internal/coverage"
	"peas/internal/failure"
	"peas/internal/forward"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/sim"
	"peas/internal/stats"
	"peas/internal/trace"
)

// Thresholds and sampling parameters of the paper's metrics.
const (
	// LifetimeThreshold: "both threshold values are chosen as 90%".
	LifetimeThreshold = 0.9
	// MaxCoverageK: the paper reports 3-, 4- and 5-coverage; we track
	// up to 5.
	MaxCoverageK = 5
	// CoverageInterval is the sampling period of the coverage lattice.
	CoverageInterval = 25.0
	// CoverageSustain is how many consecutive below-threshold samples
	// end the coverage lifetime (tolerating transient dips Adaptive
	// Sleeping repairs within ~1/λd; see DESIGN.md).
	CoverageSustain = 3
	// SensingRange: "the sensing and maximum transmitting ranges are
	// both 10 meters".
	SensingRange = 10.0
	// BaseFailuresPer5000 is the failure rate of Figs. 9-11 / Table 1.
	BaseFailuresPer5000 = 10.66
)

// RunConfig configures one simulation run.
type RunConfig struct {
	// Network is the deployment and protocol configuration.
	Network node.Config
	// FailuresPer5000s is the injected failure rate in the paper's
	// unit (failures per 5000 seconds).
	FailuresPer5000s float64
	// Horizon bounds the simulated time in seconds. Zero selects a
	// deployment-proportional horizon long enough for every node to die.
	Horizon float64
	// Forwarding enables the source/sink data workload.
	Forwarding bool
	// CoverageSpacing is the lattice spacing in meters (0 => 1 m).
	CoverageSpacing float64
	// Trace, when non-nil, records structured simulation events. The
	// recorded events are copies; the network the recorder watched is
	// borrowed until Run returns, like every hook's below.
	Trace *trace.Recorder
	// OnSample, when non-nil, receives every periodic coverage sample:
	// the time, the working-node count, and the K-coverage fractions
	// (index 0 is 1-coverage).
	OnSample func(t float64, working int, byK []float64)
	// OnFinish, when non-nil, runs after the simulation completes, with
	// the network still intact — e.g. to render a final snapshot. The
	// network is borrowed until Run returns; copy out what must outlive it.
	OnFinish func(net *node.Network)
	// OnNetwork, when non-nil, runs once the network is fully built and
	// instrumented but before any event executes — the attachment point
	// for read-only observers like the runtime invariant oracle. It fires
	// on fresh starts (before Start) and on resumed runs (after the
	// snapshot is restored). The network is borrowed until Run returns:
	// Run hands its storage to the next run then, so neither it nor its
	// engine, medium or nodes may be used afterwards.
	OnNetwork func(net *node.Network)

	// CheckpointEvery, when positive with OnCheckpoint set, arms a
	// checkpoint boundary every that many simulated seconds (deferred by
	// up to a few milliseconds to the next quiescent radio boundary). The
	// boundary ticks are engine events whether or not a snapshot is taken
	// at them, so the cadence is part of a run's event count — though
	// never of its state.
	CheckpointEvery float64
	// OnCheckpoint receives the full-state snapshot captured at a
	// boundary; returning true stops the run at the capture point.
	OnCheckpoint func(s *checkpoint.Snapshot) (stop bool)
	// CheckpointDue, when non-nil, is asked at each boundary whether a
	// snapshot is wanted there; on false the boundary passes with nothing
	// captured and OnCheckpoint is not called. Nil captures at every
	// boundary. It is read from the run's goroutine and must not touch
	// model state. A caller that only ever wants the next boundary after
	// some outside signal (a drain) sets this instead of paying for a
	// snapshot per boundary and discarding it.
	CheckpointDue func() bool
	// Resume, when non-nil, continues a checkpointed run instead of
	// booting a fresh one. The snapshot supplies the network
	// configuration and experiment knobs; Network, FailuresPer5000s,
	// Forwarding and CoverageSpacing in this config are ignored, and
	// Horizon only applies when positive (to extend the run past the
	// snapshot's recorded horizon).
	Resume *checkpoint.Snapshot
	// CaptureFinal captures the end-of-run state into RunStats.FinalState
	// so callers can compare state hashes across runs.
	CaptureFinal bool

	// Supervisor, when non-nil, is attached to the run's engine: a
	// controller goroutine may set Supervisor.Stop to request cooperative
	// preemption (the run loop polls it every few hundred events) and may
	// watch Supervisor.Beat for event progress. Preemption keeps the
	// clock at the stop point and the pending schedule intact.
	Supervisor *sim.Supervisor
	// OnPreempt, when non-nil, receives a full-state snapshot captured at
	// the preemption point after a Supervisor stop: the run first drains
	// in-flight radio frames to the next quiescent boundary (single
	// events, no new horizon), then captures, exactly like a periodic
	// checkpoint. The snapshot resumes bit-exact through Resume. Ignored
	// for chaos runs — chaos state lives outside the snapshot format.
	OnPreempt func(s *checkpoint.Snapshot)

	// Chaos, when non-nil, attaches the scripted fault-plan engine to the
	// run: channel impairments on the radio medium plus node-fault events,
	// all derived from the plan's seed. Chaos state lives outside the
	// checkpoint format, so it cannot combine with Resume or
	// CheckpointEvery (the determinism check for chaos runs is instead
	// same-plan+seed double-run final-hash equality via CaptureFinal).
	Chaos *chaos.Plan
}

// DefaultHorizon returns a horizon long enough for a deployment of n
// nodes to exhaust itself: system lifetime scales roughly linearly at one
// battery life (~5000 s) per 160 deployed nodes in the paper's setup.
func DefaultHorizon(n int) float64 {
	return 6000 + 8000*float64(n)/160
}

// RunStats is everything a single run produces.
type RunStats struct {
	// CoverageLifetime[k-1] is the K-coverage lifetime for K=1..MaxCoverageK.
	CoverageLifetime [MaxCoverageK]float64
	// CoverageDropped[k-1] reports whether the K-coverage actually
	// crossed the threshold inside the horizon.
	CoverageDropped [MaxCoverageK]bool
	// InitialCoverage[k-1] is the K-coverage fraction once the boot
	// transient settles (first sample after 300 s).
	InitialCoverage [MaxCoverageK]float64
	// DeliveryLifetime is the 90% cumulative-success crossing (0 when
	// forwarding was disabled).
	DeliveryLifetime float64
	DeliveryDropped  bool
	// ReportsGenerated/Delivered are the forwarding totals.
	ReportsGenerated int
	ReportsDelivered int
	// WorkingTransitions counts working-set flips the forwarding harness
	// saw (nodes entering or leaving Working), and RouteRebuilds the
	// reports that had to search for a route because of one; the other
	// 1 - RouteRebuilds/ReportsGenerated of reports reused the previous
	// route. Both count this process's run only — a resumed run counts
	// from its resume point, where its first report always rebuilds — and
	// are in neither the snapshot nor the state hash.
	WorkingTransitions int `json:",omitempty"`
	RouteRebuilds      int `json:",omitempty"`
	// EngineEvents, EventStructs and HeapSlots are the engine's own
	// account of the run (sim.EngineStats): events executed (timer and
	// ticker firings included), the most event records the schedule held
	// at once and the sum of the engine's three queues' peaks — the run's
	// own high-water marks, whatever storage it was built into. Like the
	// two above these describe this process's run only — a resumed run
	// counts from its resume point — and are in neither the snapshot nor
	// the state hash. Each engine counts for itself, so they are exact
	// under any number of concurrent runs.
	EngineEvents uint64 `json:",omitempty"`
	EventStructs uint64 `json:",omitempty"`
	HeapSlots    int    `json:",omitempty"`
	// NearSlots is the part of HeapSlots the imminent events are inserted
	// into, the near run; the rest hold the long waits: each node's next
	// wake-up in the far heap and its depletion deadline in the timer heap.
	NearSlots int `json:",omitempty"`
	// DeliveryEvents, DeferralEvents, TimerEvents and OtherEvents split
	// EngineEvents by who scheduled the event, from tallies the layers
	// keep anyway — the engine does not classify what it runs. Deliveries
	// are the radio's delivery events and deferrals its carrier-sense
	// retries, both counted when scheduled (a run cut at its horizon can
	// leave Medium.InFlight of them unexecuted). Timers are the PEAS
	// timers that fired and acted: wake-ups, the PROBE copies after the
	// first, one probe-window end per wake-up, and REPLY back-offs. Other
	// is the remainder: coverage and report tickers, failure arrivals,
	// battery deaths, checkpoint boundaries, and protocol timers that
	// fired after their node had moved on. Same scope as the fields above:
	// this process's run, outside the snapshot and the state hash.
	DeliveryEvents uint64 `json:",omitempty"`
	DeferralEvents uint64 `json:",omitempty"`
	TimerEvents    uint64 `json:",omitempty"`
	OtherEvents    uint64 `json:",omitempty"`
	// Wakeups is the total probe rounds across all nodes.
	Wakeups uint64
	// CoverageSamples is how many periodic coverage observations the run
	// recorded (resumed samples included) — a deterministic work counter
	// TestGoldenDeterminism pins alongside events/packets/wakeups.
	CoverageSamples int
	// ProtocolEnergy is the joules attributed to PEAS operation
	// (Table 1 numerator).
	ProtocolEnergy float64
	// TotalEnergy is the joules consumed by the network overall
	// (Table 1 denominator).
	TotalEnergy float64
	// OverheadRatio is ProtocolEnergy / TotalEnergy.
	OverheadRatio float64
	// MeanWorking is the mean working-node count after boot-up.
	MeanWorking float64
	// FailuresInjected counts the deaths drawn by the §5.2 failure
	// process (FailuresPer5000s). A chaos plan's fail-stops are not in
	// it; they count under RunStats.Chaos.
	FailuresInjected int
	// FailedFraction is FailuresInjected / N.
	FailedFraction float64
	// AllDeadAt is when the last node died (horizon if some survived).
	AllDeadAt float64
	// PacketsSent/Delivered/Collided are medium counters.
	PacketsSent      uint64
	PacketsDelivered uint64
	PacketsCollided  uint64
	// Preempted reports that the run was stopped early by a
	// RunConfig.Supervisor rather than finishing its horizon; the other
	// metrics then describe the truncated trajectory.
	Preempted bool
	// FinalState is the end-of-run snapshot (nil unless CaptureFinal).
	// It is excluded from JSON so RunStats can travel over the service
	// wire; the snapshot's StateHash is reported separately.
	FinalState *checkpoint.Snapshot `json:"-"`
	// Chaos holds the final per-fault-class counters of a chaos run (nil
	// otherwise).
	Chaos map[string]uint64
}

// Run executes one simulation and gathers the paper's metrics. When
// cfg.Resume holds a checkpoint the run continues it — restoring the full
// model state and pending event schedule — instead of booting fresh.
//
// The run is built into the storage of one that returned before it, when
// one is kept (see node.Network.Release), and hands its own storage
// back when it returns, error or not; the network its hooks see is
// borrowed until then. What escapes — the RunStats, its FinalState and
// every snapshot handed to OnCheckpoint or OnPreempt — owns its memory.
func Run(cfg RunConfig) (*RunStats, error) {
	snap := cfg.Resume
	if snap != nil {
		cfg.Network = snap.Net
		cfg.FailuresPer5000s = snap.FailuresPer5000s
		cfg.Forwarding = snap.Forwarding
		cfg.CoverageSpacing = snap.CoverageSpacing
		if cfg.Horizon <= 0 {
			cfg.Horizon = snap.Horizon
		}
	}
	net, err := node.NewNetwork(cfg.Network)
	if err != nil {
		return nil, err
	}
	// A run that panics leaves its storage to the garbage collector, in
	// whatever state the panic found it; one that returns hands it to the
	// next run.
	res, err := run(cfg, net)
	net.Release()
	return res, err
}

// runStorage is the part of a run's storage Run keeps with the network's
// (node.Network.Spare), so the next run built into the same network reuses
// it: the coverage lattice and counts, the metric series and the
// forwarding workload with its route table.
type runStorage struct {
	lattice coverage.Lattice
	inc     coverage.Incremental
	tracker coverage.Tracker
	working *metrics.Series
	fw      forward.Harness
	byK     []float64
}

// run is Run on a built network.
func run(cfg RunConfig, net *node.Network) (*RunStats, error) {
	snap := cfg.Resume
	st, _ := net.Spare.(*runStorage)
	if st == nil {
		st = &runStorage{working: metrics.NewSeries("working"), byK: make([]float64, 0, MaxCoverageK)}
		net.Spare = st
	}
	if cfg.Trace != nil {
		trace.Attach(cfg.Trace, net)
	}
	var chaosCtl *chaos.Controller
	if cfg.Chaos != nil {
		if snap != nil {
			return nil, fmt.Errorf("experiment: chaos plans cannot resume from a checkpoint (chaos state is outside the snapshot format)")
		}
		if cfg.CheckpointEvery > 0 {
			return nil, fmt.Errorf("experiment: chaos plans cannot take mid-run checkpoints; compare final-state hashes instead")
		}
		var err error
		chaosCtl, err = chaos.AttachSim(net, cfg.Chaos)
		if err != nil {
			return nil, err
		}
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon(cfg.Network.N)
	}

	// Coverage sampling. The incremental engine keeps per-lattice-point
	// counts current through the working-transition hook, so each periodic
	// sample is an O(MaxCoverageK) histogram suffix sum instead of
	// re-stamping every working disk — the per-tick cost is proportional
	// to working-set churn, not working-set size. The legacy
	// Lattice.Fraction path remains the differential-testing reference
	// (see internal/coverage and the equivalence tests).
	spacing := cfg.CoverageSpacing
	if spacing <= 0 {
		spacing = 1
	}
	lattice := &st.lattice
	lattice.Reset(cfg.Network.Field, spacing)
	inc := attachIncremental(&st.inc, net, lattice, MaxCoverageK)
	tracker := &st.tracker
	tracker.Reset(MaxCoverageK)
	workingSeries := st.working
	workingSeries.Reset()
	byKBuf := st.byK
	sample := func() {
		now := net.Engine.Now()
		byKBuf = inc.FractionInto(byKBuf)
		tracker.Record(now, byKBuf)
		working := inc.WorkingCount()
		workingSeries.Record(now, float64(working))
		if cfg.OnSample != nil {
			cfg.OnSample(now, working, byKBuf)
		}
	}
	var sampler *sim.Ticker
	if snap == nil {
		sampler = net.Engine.NewTicker(CoverageInterval, sample)
	}

	// Failure injection.
	inj := newInjector(net, cfg.FailuresPer5000s)

	// Forwarding workload.
	var fw *forward.Harness
	if cfg.Forwarding {
		fw = &st.fw
		fw.Reset(forward.DefaultConfig(cfg.Network.Field), net)
		if snap == nil {
			fw.Start()
		}
	}

	// Stop early once the deployment is exhausted.
	allDeadAt := math.NaN()
	alive := cfg.Network.N
	if snap != nil {
		alive = 0
		for i := range snap.Nodes {
			if snap.Nodes[i].Alive {
				alive++
			}
		}
	}
	net.Observe(node.Observer{
		Death: func(core.NodeID, node.DeathCause) {
			alive--
			if alive == 0 {
				allDeadAt = net.Engine.Now()
				net.Engine.Stop()
			}
		},
		Revive: func(core.NodeID) { alive++ },
	})

	if snap == nil {
		if cfg.OnNetwork != nil {
			cfg.OnNetwork(net)
		}
		net.Start()
		inj.Start()
		sample() // t=0 observation
	} else {
		tracker.Restore(snap.TrackerSamples)
		workingSeries.Restore(snap.WorkingSeries)
		var err error
		sampler, err = resumeRun(net, snap, sample, fw, inj)
		if err != nil {
			return nil, err
		}
		// Checkpoint restores bypass the working-transition hook, so
		// reconstruct the incremental counts from the restored working set.
		inc.Rebuild(func(i int) bool { return net.Nodes[i].Working() })
		if cfg.OnNetwork != nil {
			cfg.OnNetwork(net)
		}
	}

	capture := func() *checkpoint.Snapshot {
		return captureSnapshot(cfg, horizon, spacing, net, tracker,
			workingSeries, sampler, inj, fw)
	}
	if cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil {
		scheduleCheckpoints(net, cfg.CheckpointEvery, cfg.CheckpointDue, capture, cfg.OnCheckpoint)
	}

	if cfg.Supervisor != nil {
		net.Engine.Supervise(cfg.Supervisor)
	}
	deferrals0, timers0 := eventSources(net) // non-zero on a resumed run
	net.Run(horizon)
	preempted := cfg.Supervisor != nil && net.Engine.Preempted()
	if preempted && cfg.OnPreempt != nil && cfg.Chaos == nil {
		// Preemption can land mid-transmission; checkpoints only capture
		// at radio-quiescent boundaries, so single-step the engine until
		// the in-flight frames settle (the same boundary the periodic
		// scheduler waits for, reached event-by-event instead of by
		// deferred retry).
		for net.Medium.InFlight() > 0 && net.Engine.Step() {
		}
		cfg.OnPreempt(capture())
	}
	if cfg.OnFinish != nil && !preempted {
		cfg.OnFinish(net)
	}

	// Collect results.
	res := &RunStats{
		Wakeups:          net.TotalWakeups(),
		CoverageSamples:  len(tracker.Samples()),
		ProtocolEnergy:   net.ProtocolEnergy(),
		TotalEnergy:      net.TotalConsumed(),
		MeanWorking:      workingSeries.MeanAfter(300),
		FailuresInjected: inj.Injected(),
		FailedFraction:   float64(inj.Injected()) / float64(cfg.Network.N),
		AllDeadAt:        horizon,
	}
	if !math.IsNaN(allDeadAt) {
		res.AllDeadAt = allDeadAt
	}
	if res.TotalEnergy > 0 {
		res.OverheadRatio = res.ProtocolEnergy / res.TotalEnergy
	}
	for k := 1; k <= MaxCoverageK; k++ {
		lt, dropped := tracker.Lifetime(k, LifetimeThreshold, CoverageSustain)
		res.CoverageLifetime[k-1] = lt
		res.CoverageDropped[k-1] = dropped
	}
	for _, s := range tracker.Samples() {
		if s.T >= 300 {
			copy(res.InitialCoverage[:], s.ByK)
			break
		}
	}
	if fw != nil {
		lt, dropped := fw.DeliveryLifetime(LifetimeThreshold)
		res.DeliveryLifetime = lt
		res.DeliveryDropped = dropped
		res.ReportsGenerated, res.ReportsDelivered = fw.Ratio().Counts()
		res.WorkingTransitions, res.RouteRebuilds = fw.WorkingTransitions(), fw.RouteRebuilds()
	}
	res.PacketsSent, res.PacketsDelivered, res.PacketsCollided, _, _ = net.Medium.Stats()
	es := net.Engine.Stats()
	res.EngineEvents, res.EventStructs, res.HeapSlots, res.NearSlots =
		es.Events, es.EventStructs, es.HeapSlots, es.NearSlots
	deferrals, timers := eventSources(net)
	res.DeliveryEvents = net.Medium.DeliveryEvents()
	res.DeferralEvents = deferrals - deferrals0
	res.TimerEvents = timers - timers0
	if known := res.DeliveryEvents + res.DeferralEvents + res.TimerEvents; known < res.EngineEvents {
		res.OtherEvents = res.EngineEvents - known
	}
	if chaosCtl != nil {
		res.Chaos = chaosCtl.Counters().Snapshot()
	}
	res.Preempted = preempted
	if cfg.CaptureFinal && !preempted {
		res.FinalState = capture()
	}
	return res, nil
}

// eventSources reads the tallies behind RunStats.DeferralEvents and
// TimerEvents. Both are part of the model state a checkpoint restores, so
// a run reports their growth since it started.
func eventSources(net *node.Network) (deferrals, timers uint64) {
	for _, n := range net.Nodes {
		st := n.Protocol().Stats()
		// A wake-up timer opens each round, a window-end timer closes it,
		// and every PROBE but the round's first waits for its own timer.
		timers += st.Wakeups + st.ProbesSent + st.RepliesSent
	}
	return net.Medium.Deferred(), timers
}

// newInjector builds net's failure process at the given rate per 5000 s.
// Its stream is the network seed under a fixed salt, so failure times are
// reproducible per seed yet independent of the deployment and protocol
// draws made from the seed itself.
func newInjector(net *node.Network, per5000 float64) *failure.Injector {
	return failure.NewInjector(net, failure.RatePer5000s(per5000),
		stats.NewRNG(net.Config().Seed^0x5f3759df))
}
