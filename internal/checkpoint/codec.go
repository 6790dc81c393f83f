package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"peas/internal/core"
	"peas/internal/coverage"
	"peas/internal/failure"
	"peas/internal/forward"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/radio"
	"peas/internal/stats"
)

// The canonical binary format: an 8-byte magic, a uint32 version, then the
// snapshot fields in a fixed order with fixed-width little-endian scalars
// (floats as IEEE-754 bit patterns) and uint32-prefixed sequences. The
// encoding is a pure function of the snapshot value — no maps, no
// pointers, no varints — which is what makes StateHash meaningful and the
// encode/decode/encode round trip byte-identical.
//
// The field order is written once: each state type has one code function
// that hands a coder a pointer to each of its fields in format order, and
// the coder's direction decides whether the field is appended or read
// back. A new state field is therefore added in one place.

var magic = [8]byte{'P', 'E', 'A', 'S', 'C', 'K', 'P', 'T'}

// ErrCorrupt reports a snapshot that is truncated or structurally invalid.
// Decode wraps it with positional detail; match with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated snapshot")

// ErrVersion reports a snapshot written by an unknown format version.
var ErrVersion = errors.New("checkpoint: unsupported format version")

// --- coder ---

// coder walks a value field by field in one direction. Encoding, it
// appends each field to buf; with w set it streams: at each spill point a
// buffer past spillAt bytes is written to w and reused, so encoding a
// snapshot of any size holds one bounded buffer. Decoding, it reads each
// field from buf at off, checking as it goes; the first failure is kept in
// err and turns every later read into a no-op. The direction is a field of
// its own, not inferred from buf, so that decoding nil input fails rather
// than encodes.
type coder struct {
	decoding bool
	buf      []byte
	off      int
	w        io.Writer
	err      error // the first write error, or the first decoding failure
}

// spillAt is the buffered size at which a streaming coder writes out.
const spillAt = 4096

// spill writes the buffer out once it is past spillAt (streaming only).
func (c *coder) spill() {
	if c.w != nil && len(c.buf) >= spillAt {
		c.flush()
	}
}

func (c *coder) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

func (c *coder) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, c.off)
	}
}

// take consumes the next n input bytes, or returns nil once decoding has
// failed or would run past the end.
func (c *coder) take(n int) []byte {
	if c.err != nil || len(c.buf)-c.off < n {
		c.fail("truncated")
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

// get64 and getF64 are take(8) written out: each is a single call, which
// leaves f64, u64 and i64 small enough to inline into the code functions.
func (c *coder) get64() uint64 {
	if c.err != nil || len(c.buf)-c.off < 8 {
		c.fail("truncated")
		return 0
	}
	c.off += 8
	return binary.LittleEndian.Uint64(c.buf[c.off-8:])
}

func (c *coder) getF64() float64 {
	if c.err != nil || len(c.buf)-c.off < 8 {
		c.fail("truncated")
		return 0
	}
	c.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off-8:]))
}

func (c *coder) get32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *coder) get8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *coder) u64(v *uint64) {
	if c.decoding {
		*v = c.get64()
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	}
}

func (c *coder) f64(v *float64) {
	if c.decoding {
		*v = c.getF64()
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	}
}

// i64 codes an integer as 8 bytes.
func i64[T ~int | ~int64](c *coder, v *T) {
	if c.decoding {
		*v = T(c.get64())
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	}
}

// u8 codes an enumeration as one byte.
func u8[T ~int | ~uint8](c *coder, v *T) {
	if c.decoding {
		*v = T(c.get8())
	} else {
		c.buf = append(c.buf, uint8(*v))
	}
}

func (c *coder) boolean(v *bool) {
	if c.decoding {
		c.getBool(v)
	} else {
		var b uint8
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	}
}

// getBool accepts only the canonical encodings 0 and 1, so every accepted
// input re-encodes byte-identically.
func (c *coder) getBool(v *bool) {
	switch c.get8() {
	case 1:
		*v = true
	case 0:
		*v = false
	default:
		c.fail("non-canonical boolean")
	}
}

// length codes a sequence length n and returns it, or, decoding, the
// length read. A decoded length is checked against the bytes left,
// assuming each element occupies at least minElem bytes, so a corrupted
// length cannot drive a huge allocation.
func (c *coder) length(n, minElem int) int {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
		return n
	}
	n = int(c.get32())
	if c.err != nil {
		return 0
	}
	if n < 0 || n*minElem > len(c.buf)-c.off {
		c.fail("sequence length exceeds remaining input")
		return 0
	}
	return n
}

// seq codes the length of *s; decoding, it makes *s that long, leaving an
// empty sequence nil. The caller then codes the elements.
func seq[T any](c *coder, s *[]T, minElem int) {
	if n := c.length(len(*s), minElem); c.decoding && n > 0 {
		*s = make([]T, n)
	}
}

// optSeq codes a presence flag and, when present, the length of *s;
// decoding, a present empty sequence comes back non-nil.
func optSeq[T any](c *coder, s *[]T, minElem int) {
	present := *s != nil
	c.boolean(&present)
	if present {
		if n := c.length(len(*s), minElem); c.decoding {
			*s = make([]T, n)
		}
	}
}

// header codes the magic and the format version that open an encoding.
func (c *coder) header() {
	if !c.decoding {
		c.buf = append(c.buf, magic[:]...)
		c.buf = binary.LittleEndian.AppendUint32(c.buf, Version)
		return
	}
	if b := c.take(len(magic)); b == nil || [8]byte(b) != magic {
		c.err = fmt.Errorf("%w: bad magic", ErrCorrupt)
		return
	}
	if v := c.get32(); c.err == nil && v != Version {
		c.err = fmt.Errorf("%w: got %d, this build reads %d", ErrVersion, v, Version)
	}
}

// end returns the first decoding failure, or one for unread input.
func (c *coder) end() error {
	if c.err == nil && c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.buf)-c.off)
	}
	return c.err
}

// EncodeBytes returns the canonical encoding of the snapshot.
func (s *Snapshot) EncodeBytes() []byte {
	// A node encodes to about 360 bytes mid-run; sizing the buffer for
	// that spares most snapshots the copies of regrowing it.
	c := &coder{buf: make([]byte, 0, 4096+384*len(s.Nodes))}
	s.code(c)
	return c.buf
}

// Encode writes the canonical encoding to w, a bounded buffer at a time.
func (s *Snapshot) Encode(w io.Writer) error {
	c := &coder{buf: make([]byte, 0, 2*spillAt), w: w}
	s.code(c)
	c.flush()
	return c.err
}

// DecodeBytes parses a canonical snapshot encoding. Corrupted or
// truncated input yields an error wrapping ErrCorrupt (never a panic);
// snapshots from other format versions yield ErrVersion.
func DecodeBytes(data []byte) (*Snapshot, error) {
	c := &coder{decoding: true, buf: data}
	s := &Snapshot{}
	s.code(c)
	if err := c.end(); err != nil {
		return nil, err
	}
	return s, nil
}

// Decode reads and parses a snapshot from r.
func Decode(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return DecodeBytes(data)
}

// codeHead walks the snapshot up to the node count: the header, the run's
// knobs and the network configuration.
func (s *Snapshot) codeHead(c *coder) {
	c.header()
	c.f64(&s.SimTime)
	c.f64(&s.Horizon)
	c.f64(&s.FailuresPer5000s)
	c.boolean(&s.Forwarding)
	c.f64(&s.CoverageSpacing)
	codeNetConfig(c, &s.Net)
}

func (s *Snapshot) code(c *coder) {
	s.codeHead(c)
	seq(c, &s.Nodes, 8)
	for i := range s.Nodes {
		codeNode(c, &s.Nodes[i])
		c.spill()
	}
	codeMedium(c, &s.Medium)
	codeInjector(c, &s.Injector)
	forwarding := s.Forward != nil
	c.boolean(&forwarding)
	if forwarding {
		if c.decoding {
			s.Forward = &forward.HarnessState{}
		}
		codeHarness(c, s.Forward)
	}
	codeSamples(c, &s.TrackerSamples)
	codePoints(c, &s.WorkingSeries)
	c.f64(&s.NextSampleAt)
}

// AppendNetConfig appends the canonical encoding of a network
// configuration to buf and returns the extended slice. It is the same
// encoding Snapshot.EncodeBytes embeds — a pure function of the config
// value with fixed-width little-endian scalars — which makes it usable
// as a content-address: two configs encode identically exactly when they
// would drive identical simulations. The job queue derives its
// result-cache keys from it.
func AppendNetConfig(buf []byte, c *node.Config) []byte {
	cd := &coder{buf: buf}
	codeNetConfig(cd, c)
	return cd.buf
}

func codeNetConfig(c *coder, n *node.Config) {
	c.f64(&n.Field.Width)
	c.f64(&n.Field.Height)
	i64(c, &n.N)

	p := &n.Protocol
	c.f64(&p.ProbingRange)
	c.f64(&p.InitialRate)
	c.f64(&p.DesiredRate)
	i64(c, &p.EstimatorK)
	i64(c, &p.NumProbes)
	c.f64(&p.ProbeWindow)
	c.f64(&p.ReplyJitterMax)
	i64(c, &p.PacketSize)
	c.f64(&p.MinRate)
	c.f64(&p.MaxRate)
	c.boolean(&p.TurnoffEnabled)
	c.boolean(&p.StaleEstimates)

	r := &n.Radio
	c.f64(&r.BitsPerSecond)
	c.f64(&r.MaxRange)
	c.f64(&r.LossRate)
	c.boolean(&r.CollisionsEnabled)
	c.boolean(&r.CSMAEnabled)
	c.f64(&r.CSMABackoffMax)
	c.boolean(&r.FixedPower)
	c.f64(&r.Irregularity)

	c.f64(&n.Energy.TransmitW)
	c.f64(&n.Energy.ReceiveW)
	c.f64(&n.Energy.IdleW)
	c.f64(&n.Energy.SleepW)

	c.f64(&n.InitialEnergyMin)
	c.f64(&n.InitialEnergyMax)
	i64(c, &n.Seed)

	optSeq(c, &n.Positions, 16)
	for i := range n.Positions {
		c.f64(&n.Positions[i].X)
		c.f64(&n.Positions[i].Y)
		c.spill()
	}
	optSeq(c, &n.NodeSeeds, 8)
	for i := range n.NodeSeeds {
		i64(c, &n.NodeSeeds[i])
	}
}

func codeRNG(c *coder, st *stats.RNGState) {
	c.u64(&st.State)
	c.u64(&st.Inc)
}

func codeNode(c *coder, st *node.NodeState) {
	c.boolean(&st.Alive)
	i64(c, &st.Cause)
	c.f64(&st.DiedAt)
	c.f64(&st.DeathAt)
	codeRNG(c, &st.RNG)

	b := &st.Battery
	c.f64(&b.Initial)
	c.f64(&b.Remaining)
	u8(c, &b.Mode)
	c.f64(&b.LastT)
	c.boolean(&b.Dead)
	for i := range b.ConsumedByMode {
		c.f64(&b.ConsumedByMode[i])
	}

	codeProtocol(c, &st.Proto)
}

func codeProtocol(c *coder, p *core.ProtocolState) {
	u8(c, &p.State)
	c.f64(&p.StateSince)
	c.f64(&p.Lambda)
	c.f64(&p.WorkStart)
	c.boolean(&p.ReplyPending)
	seq(c, &p.Heard, 32)
	for i := range p.Heard {
		r := &p.Heard[i]
		i64(c, &r.From)
		c.f64(&r.RateEstimate)
		c.f64(&r.DesiredRate)
		c.f64(&r.TimeWorking)
	}
	st := &p.Stats
	c.u64(&st.Wakeups)
	c.u64(&st.ProbesSent)
	c.u64(&st.RepliesSent)
	c.u64(&st.RepliesHeard)
	c.u64(&st.RateUpdates)
	c.u64(&st.Turnoffs)
	c.f64(&st.TimeWorking)
	c.f64(&st.TimeSleeping)
	c.f64(&st.TimeProbing)
	est := &p.Estimator
	i64(c, &est.N)
	c.f64(&est.T0)
	c.boolean(&est.Started)
	c.f64(&est.Estimate)
	i64(c, &est.Windows)
	seq(c, &p.Timers, 17)
	for i := range p.Timers {
		t := &p.Timers[i]
		u8(c, &t.Kind)
		i64(c, &t.Probe)
		c.f64(&t.At)
	}
}

func codeMedium(c *coder, st *radio.MediumState) {
	c.u64(&st.Sent)
	c.u64(&st.Delivered)
	c.u64(&st.Collided)
	c.u64(&st.Lost)
	c.u64(&st.Deferred)
	c.u64(&st.BytesSent)
	seq(c, &st.BusyEnd, 8)
	for i := range st.BusyEnd {
		c.f64(&st.BusyEnd[i])
		c.spill()
	}
	seq(c, &st.Corrupt, 1)
	for i := range st.Corrupt {
		c.boolean(&st.Corrupt[i])
	}
	codeRNG(c, &st.RNG)
}

func codeInjector(c *coder, st *failure.InjectorState) {
	i64(c, &st.Injected)
	seq(c, &st.Victims, 8)
	for i := range st.Victims {
		i64(c, &st.Victims[i])
	}
	c.boolean(&st.Stopped)
	c.f64(&st.NextAt)
	codeRNG(c, &st.RNG)
}

func codeHarness(c *coder, st *forward.HarnessState) {
	i64(c, &st.Generated)
	i64(c, &st.Succeeded)
	codePoints(c, &st.RatioPoints)
	codePoints(c, &st.HopsPoints)
	codeRNG(c, &st.RNG)
	c.f64(&st.NextGenAt)
}

func codePoints(c *coder, pts *[]metrics.Point) {
	seq(c, pts, 16)
	for i := range *pts {
		p := &(*pts)[i]
		c.f64(&p.T)
		c.f64(&p.V)
		c.spill()
	}
}

func codeSamples(c *coder, samples *[]coverage.Sample) {
	seq(c, samples, 12)
	for i := range *samples {
		s := &(*samples)[i]
		c.f64(&s.T)
		seq(c, &s.ByK, 8)
		for j := range s.ByK {
			c.f64(&s.ByK[j])
		}
		c.spill()
	}
}
