package checkpoint

import (
	"peas/internal/core"
	"peas/internal/stats"
)

// LiveNode is the per-node checkpoint of the live runtime (package
// peasnet): everything a supervisor needs to rebuild one crashed node
// and resume it from where the snapshot was taken — the protocol clock,
// the node's private RNG stream, the remaining battery charge, and the
// full protocol state including pending timers. Unlike Snapshot, which
// captures a whole simulated network at a quiescent boundary, a LiveNode
// is captured per node on its event loop while the rest of the cluster
// keeps running.
type LiveNode struct {
	// ID is the node identifier on the transport.
	ID int
	// ProtoTime is the node's protocol clock at capture.
	ProtoTime float64
	// RNG is the node's private random stream.
	RNG stats.RNGState
	// BatteryJoules is the remaining virtual charge; negative means
	// battery emulation was off.
	BatteryJoules float64
	// Proto is the serializable protocol state.
	Proto core.ProtocolState
}
