// Package checkpoint implements versioned snapshot/restore for the whole
// simulation. A Snapshot captures, at a quiescent event boundary (no radio
// frames in flight), the full model state: per-node PEAS state machines
// with their pending timers re-expressed as serializable records, battery
// charge, RNG stream positions, the failure schedule, the data workload,
// and the metric series. The experiment runner (internal/experiment) takes
// and restores snapshots; this package owns the in-memory representation,
// the canonical binary codec, and the state hash.
//
// Determinism contract: restoring a snapshot and running to time T yields
// bit-identical model state to running the original simulation to T
// without interruption. StateHash turns that from an assumption into a
// checked invariant — equal hashes mean equal states, and the hash is
// cheap enough to compare at many sample times (see the verify mode of
// cmd/peas-sim).
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"

	"peas/internal/coverage"
	"peas/internal/failure"
	"peas/internal/forward"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/radio"
)

// Version is the checkpoint format version written into the header.
// Decoders reject other versions rather than guessing.
//
// History: v1 original format; v2 added the optional Net.NodeSeeds
// sequence after Net.Positions.
const Version uint32 = 2

// Snapshot is the full state of a simulation run at one instant.
type Snapshot struct {
	// SimTime is the simulation clock at the capture boundary.
	SimTime float64
	// Horizon is the resolved absolute end time of the run, so a resume
	// needs no external configuration (it may still be overridden to
	// extend a finished run).
	Horizon float64
	// FailuresPer5000s, Forwarding and CoverageSpacing are the
	// experiment-level knobs of the run.
	FailuresPer5000s float64
	Forwarding       bool
	CoverageSpacing  float64
	// Net is the full deployment configuration. The static parts of the
	// simulation — positions, spatial index, radio quality field — are
	// deterministically rebuilt from it on restore; only mutable state is
	// carried explicitly.
	Net node.Config
	// Nodes is the mutable per-node state, indexed by node ID.
	Nodes []node.NodeState
	// Medium is the radio channel state (counters, occupancy, RNG).
	Medium radio.MediumState
	// Injector is the failure schedule state.
	Injector failure.InjectorState
	// Forward is the data-workload state; nil when forwarding is off.
	Forward *forward.HarnessState
	// TrackerSamples is the coverage history recorded so far.
	TrackerSamples []coverage.Sample
	// WorkingSeries is the working-node-count history.
	WorkingSeries []metrics.Point
	// NextSampleAt is the absolute deadline of the next periodic coverage
	// sample.
	NextSampleAt float64
}

// StateHash is the SHA-256 of the canonical encoding. Two runs are in the
// same state exactly when their snapshots hash equal; comparing hashes is
// the cheap divergence check the verify mode and the determinism tests
// build on. The encoding streams into the hash through Encode's bounded
// buffer instead of being built whole first.
func (s *Snapshot) StateHash() [sha256.Size]byte {
	h := sha256.New()
	_ = s.Encode(h) // a hash.Hash never fails a write
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// StateHashHex returns StateHash as a hex string.
func (s *Snapshot) StateHashHex() string {
	h := s.StateHash()
	return hex.EncodeToString(h[:])
}
