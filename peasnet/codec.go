// Package peasnet is the live PEAS runtime: each sensor node is a
// goroutine running the same protocol state machine as the simulator
// (internal/core), over a pluggable Transport. An in-memory transport
// serves tests and single-process demos; a UDP transport runs each node
// on its own socket.
//
// The runtime demonstrates that the protocol logic evaluated in the
// simulator is directly deployable: nodes keep no per-neighbor state,
// exchange fixed-size PROBE/REPLY frames, and duty-cycle their radios
// through the State callbacks.
//
// The runtime reads time through one internal clock, the wall clock in
// every program. The package's tests run in-memory clusters on a virtual
// clock over the simulator's event engine instead, where a cluster is a
// function of its seed and its runs replay exactly.
package peasnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"peas/internal/core"
)

// Frame types on the wire.
const (
	frameProbe byte = 1
	frameReply byte = 2
)

// FrameSize is the fixed encoded size of every PEAS frame in bytes. The
// paper uses 25-byte packets; this wire format fits the same information
// in 31 bytes (1 type + 4 from + 2 seq + 3x8 float64).
const FrameSize = 31

// ErrBadFrame is returned when a received frame cannot be decoded.
var ErrBadFrame = errors.New("peasnet: bad frame")

// Marshal encodes a core.Probe or core.Reply into the fixed wire format.
func Marshal(payload any) ([]byte, error) {
	buf := make([]byte, FrameSize)
	switch msg := payload.(type) {
	case core.Probe:
		buf[0] = frameProbe
		binary.BigEndian.PutUint32(buf[1:5], uint32(msg.From))
		binary.BigEndian.PutUint16(buf[5:7], uint16(msg.Seq))
	case core.Reply:
		buf[0] = frameReply
		binary.BigEndian.PutUint32(buf[1:5], uint32(msg.From))
		binary.BigEndian.PutUint64(buf[7:15], math.Float64bits(msg.RateEstimate))
		binary.BigEndian.PutUint64(buf[15:23], math.Float64bits(msg.DesiredRate))
		binary.BigEndian.PutUint64(buf[23:31], math.Float64bits(msg.TimeWorking))
	default:
		return nil, fmt.Errorf("peasnet: cannot marshal %T", payload)
	}
	return buf, nil
}

// Unmarshal decodes a wire frame back into a core.Probe or core.Reply.
func Unmarshal(buf []byte) (any, error) {
	if len(buf) < FrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(buf))
	}
	from := core.NodeID(binary.BigEndian.Uint32(buf[1:5]))
	switch buf[0] {
	case frameProbe:
		return core.Probe{
			From: from,
			Seq:  int(binary.BigEndian.Uint16(buf[5:7])),
		}, nil
	case frameReply:
		return core.Reply{
			From:         from,
			RateEstimate: math.Float64frombits(binary.BigEndian.Uint64(buf[7:15])),
			DesiredRate:  math.Float64frombits(binary.BigEndian.Uint64(buf[15:23])),
			TimeWorking:  math.Float64frombits(binary.BigEndian.Uint64(buf[23:31])),
		}, nil
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadFrame, buf[0])
	}
}
