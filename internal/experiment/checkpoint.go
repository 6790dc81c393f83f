package experiment

import (
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
// generator, per-node timers and depletion deadlines in node-ID order, failure
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
