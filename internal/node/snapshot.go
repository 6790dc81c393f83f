package node

import (
	"fmt"

	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/sim"
	"peas/internal/stats"
)

// NodeState is the serializable state of one simulated sensor: liveness,
// the private RNG stream, the battery, the protocol state machine with
// its pending timers, and the scheduled depletion deadline.
type NodeState struct {
	Alive  bool
	Cause  DeathCause
	DiedAt float64
	// DeathAt is the absolute deadline of the armed battery-depletion
	// timer, or a negative value when none is armed.
	DeathAt float64
	RNG     stats.RNGState
	Battery energy.BatteryState
	Proto   core.ProtocolState
}

// SnapshotNodes captures the mutable per-node state of the whole
// deployment. It does not mutate anything: batteries stay unsettled and
// protocol instances untouched, so taking a snapshot cannot perturb the
// trajectory.
func (net *Network) SnapshotNodes() []NodeState {
	states := make([]NodeState, len(net.Nodes))
	for i, n := range net.Nodes {
		st := NodeState{
			Alive:   n.alive,
			Cause:   n.cause,
			DiedAt:  n.diedAt,
			DeathAt: -1,
			RNG:     n.rng.State(),
			Battery: n.battery.Snapshot(),
			Proto:   n.proto.Snapshot(),
		}
		if n.death.Armed() {
			st.DeathAt = n.death.NextAt()
		}
		states[i] = st
	}
	return states
}

// RestoreNodes overwrites the mutable state of a freshly constructed
// network with captured node states. It only patches fields (and the
// medium's power flags, which follow them); pending protocol timers and
// depletion deadlines are re-armed by ResumeSchedule once the engine clock
// is positioned at the snapshot time.
func (net *Network) RestoreNodes(states []NodeState) error {
	if len(states) != len(net.Nodes) {
		return fmt.Errorf("node: snapshot has %d nodes, network has %d",
			len(states), len(net.Nodes))
	}
	for i, st := range states {
		// The mode indexes the battery's per-mode ledger on every charge.
		if m := st.Battery.Mode; m < energy.Sleep || m > energy.DataTransmit {
			return fmt.Errorf("node: snapshot node %d has battery mode %d", i, int(m))
		}
		n := net.Nodes[i]
		n.alive = st.Alive
		n.cause = st.Cause
		n.diedAt = st.DiedAt
		n.rng.Restore(st.RNG)
		n.battery.Restore(st.Battery)
		n.proto.RestoreState(st.Proto)
		// Sync the edge-trigger baseline without firing the WorkingChange hooks:
		// restores are bulk state loads, and consumers rebuild their
		// derived state from the restored working set instead.
		n.wasWorking = n.Working()
		n.syncRadio()
	}
	return nil
}

// ResumeSchedule rebuilds the engine events a restored deployment owes:
// each alive node's pending protocol timers (in recorded order), then its
// battery-depletion timer at the captured deadline — not a recomputed one,
// which would settle the battery and move the deadline by an ulp off the
// uninterrupted run's. Call it after RestoreNodes with the engine clock at
// the snapshot time.
func (net *Network) ResumeSchedule(states []NodeState) {
	for i, st := range states {
		n := net.Nodes[i]
		if !st.Alive {
			continue
		}
		n.proto.ResumeTimers(st.Proto.Timers)
		if st.DeathAt >= 0 && st.DeathAt < sim.Forever {
			n.death.ResetAt(st.DeathAt)
		}
	}
}
