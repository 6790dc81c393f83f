package experiment

import (
	"fmt"

	"peas/internal/checkpoint"
	"peas/internal/coverage"
	"peas/internal/failure"
	"peas/internal/forward"
	"peas/internal/geom"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/sim"
)

// quiescenceRetry is how long a due checkpoint waits before re-checking
// the radio medium for quiescence. Captures happen only when no frame is
// in flight, so pending deliveries never need to be serialized; the retry
// event itself reads state without mutating it, so deferral cannot perturb
// the trajectory.
const quiescenceRetry = 1e-3

// captureSnapshot assembles a full-state snapshot of a running
// simulation. It never mutates model state: batteries stay unsettled, RNG
// streams are copied, and pending timers are read out as absolute
// deadlines.
func captureSnapshot(cfg RunConfig, horizon, spacing float64, net *node.Network,
	tracker *coverage.Tracker, working *metrics.Series, sampler *sim.Ticker,
	inj *failure.Injector, fw *forward.Harness) *checkpoint.Snapshot {
	netCfg := cfg.Network
	if netCfg.Positions == nil {
		// Materialize the deployment so a restore rebuilds the identical
		// geometry without replaying the placement draws.
		pts := make([]geom.Point, len(net.Nodes))
		for i, n := range net.Nodes {
			pts[i] = n.Pos()
		}
		netCfg.Positions = pts
	}
	s := &checkpoint.Snapshot{
		SimTime:          net.Engine.Now(),
		Horizon:          horizon,
		FailuresPer5000s: cfg.FailuresPer5000s,
		Forwarding:       cfg.Forwarding,
		CoverageSpacing:  spacing,
		Net:              netCfg,
		Nodes:            net.SnapshotNodes(),
		Medium:           net.Medium.Snapshot(),
		Injector:         inj.Snapshot(),
		TrackerSamples:   tracker.Samples(),
		WorkingSeries:    working.Points(),
		NextSampleAt:     sampler.NextAt(),
	}
	if fw != nil {
		h := fw.Snapshot()
		s.Forward = &h
	}
	return s
}

// resumeRun positions a freshly constructed network at a snapshot:
// restore mutable state first, then rebuild the pending event schedule in
// the same order a fresh run creates it (coverage sampler, forwarding
// generator, per-node timers and death events in node-ID order, failure
// injector), so any events tied at the same instant replay in the original
// order.
func resumeRun(net *node.Network, snap *checkpoint.Snapshot, sample func(),
	fw *forward.Harness, inj *failure.Injector) (*sim.Ticker, error) {
	net.Engine.SetNow(snap.SimTime)
	if err := net.RestoreNodes(snap.Nodes); err != nil {
		return nil, err
	}
	if err := net.Medium.Restore(snap.Medium); err != nil {
		return nil, err
	}
	sampler := net.Engine.NewTickerAt(snap.NextSampleAt, CoverageInterval, sample)
	if fw != nil && snap.Forward != nil {
		fw.Resume(*snap.Forward)
	}
	net.ResumeSchedule(snap.Nodes)
	inj.Resume(snap.Injector)
	return sampler, nil
}

// scheduleCheckpoints arms the periodic checkpoint boundary. A due
// boundary defers in quiescenceRetry steps until the radio medium has no
// frame in flight; there, if due is nil or says a snapshot is wanted, it
// captures and hands the snapshot to onCkpt, and a true return stops the
// run at the capture point. The tick and retry events are scheduled the
// same whatever due answers — capture reads state without mutating it —
// so the predicate cannot move the trajectory or the event count.
func scheduleCheckpoints(net *node.Network, every float64, due func() bool,
	capture func() *checkpoint.Snapshot, onCkpt func(*checkpoint.Snapshot) bool) {
	nominal := net.Engine.Now() + every
	var tick func()
	tick = func() {
		if net.Medium.InFlight() > 0 {
			net.Engine.At(net.Engine.Now()+quiescenceRetry, tick)
			return
		}
		if (due == nil || due()) && onCkpt(capture()) {
			net.Engine.Stop()
			return
		}
		for nominal <= net.Engine.Now() {
			nominal += every
		}
		net.Engine.At(nominal, tick)
	}
	net.Engine.At(nominal, tick)
}

// VerifyResult reports one checkpoint/resume equivalence check.
type VerifyResult struct {
	// CheckpointAt is the capture time of the mid-run snapshot.
	CheckpointAt float64
	// Horizon is the compared end time.
	Horizon float64
	// DirectHash is the final state hash of the uninterrupted run.
	DirectHash string
	// ResumedHash is the final state hash of the checkpoint-then-resume
	// run.
	ResumedHash string
	// Match reports whether the two hashes are equal.
	Match bool
}

// VerifyCheckpoint checks the determinism contract of the checkpoint
// subsystem on one configuration: it runs seed→horizon directly, runs
// again stopping at a checkpoint near horizon/2, pushes that snapshot
// through the binary codec, resumes it to the horizon, and compares the
// final state hashes. Equal hashes mean the restored run is bit-identical
// to the uninterrupted one.
func VerifyCheckpoint(cfg RunConfig) (*VerifyResult, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon(cfg.Network.N)
	}
	cfg.Trace = nil
	cfg.CheckpointEvery = 0
	cfg.OnCheckpoint = nil
	cfg.CheckpointDue = nil
	cfg.Resume = nil

	direct := cfg
	direct.CaptureFinal = true
	a, err := Run(direct)
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}

	var mid *checkpoint.Snapshot
	half := cfg
	half.CheckpointEvery = cfg.Horizon / 2
	half.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
		mid = s
		return true
	}
	if _, err := Run(half); err != nil {
		return nil, fmt.Errorf("checkpointed run: %w", err)
	}
	if mid == nil {
		return nil, fmt.Errorf("no checkpoint captured before the %v s horizon", cfg.Horizon)
	}
	// Push the snapshot through the wire format so the verify covers the
	// codec, not just the in-memory capture.
	decoded, err := checkpoint.DecodeBytes(mid.EncodeBytes())
	if err != nil {
		return nil, fmt.Errorf("codec round trip: %w", err)
	}

	resumed := RunConfig{Resume: decoded, CaptureFinal: true}
	c, err := Run(resumed)
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}

	res := &VerifyResult{
		CheckpointAt: mid.SimTime,
		Horizon:      cfg.Horizon,
		DirectHash:   a.FinalState.StateHashHex(),
		ResumedHash:  c.FinalState.StateHashHex(),
	}
	res.Match = res.DirectHash == res.ResumedHash
	return res, nil
}
