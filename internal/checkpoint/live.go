package checkpoint

import (
	"crypto/sha256"
	"io"

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

// LiveVersion is the LiveNode format version.
const LiveVersion uint32 = 1

var liveMagic = [8]byte{'P', 'E', 'A', 'S', 'L', 'I', 'V', 'E'}

// EncodeBytes returns the canonical encoding of the live-node
// checkpoint, in the same fixed-order little-endian style as Snapshot.
func (s *LiveNode) EncodeBytes() []byte {
	c := &coder{buf: make([]byte, 0, 512)}
	s.code(c)
	return c.buf
}

// Encode writes the canonical encoding to w.
func (s *LiveNode) Encode(w io.Writer) error {
	_, err := w.Write(s.EncodeBytes())
	return err
}

// StateHash returns the SHA-256 of the canonical encoding.
func (s *LiveNode) StateHash() [32]byte { return sha256.Sum256(s.EncodeBytes()) }

// DecodeLiveNode parses a canonical live-node checkpoint. Corrupted or
// truncated input yields an error wrapping ErrCorrupt; unknown versions
// yield ErrVersion.
func DecodeLiveNode(data []byte) (*LiveNode, error) {
	c := &coder{decoding: true, buf: data}
	s := &LiveNode{}
	s.code(c)
	if err := c.end(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *LiveNode) code(c *coder) {
	c.header(liveMagic, LiveVersion, "live-node magic")
	i64(c, &s.ID)
	c.f64(&s.ProtoTime)
	codeRNG(c, &s.RNG)
	c.f64(&s.BatteryJoules)
	codeProtocol(c, &s.Proto)
}
