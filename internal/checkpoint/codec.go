package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"peas/internal/core"
	"peas/internal/coverage"
	"peas/internal/energy"
	"peas/internal/failure"
	"peas/internal/forward"
	"peas/internal/geom"
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

var magic = [8]byte{'P', 'E', 'A', 'S', 'C', 'K', 'P', 'T'}

// ErrCorrupt reports a snapshot that is truncated or structurally invalid.
// Decode wraps it with positional detail; match with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated snapshot")

// ErrVersion reports a snapshot written by an unknown format version.
var ErrVersion = errors.New("checkpoint: unsupported format version")

// --- encoder ---

// enc appends the canonical encoding to buf. With w set it streams: at
// each spill point a buffer past spillAt bytes is written to w and reused,
// so encoding a snapshot of any size holds one bounded buffer.
type enc struct {
	buf []byte
	w   io.Writer
	err error // the first write error
}

// spillAt is the buffered size at which a streaming enc writes out.
const spillAt = 4096

// spill writes the buffer out once it is past spillAt (streaming only).
func (e *enc) spill() {
	if e.w != nil && len(e.buf) >= spillAt {
		e.flush()
	}
}

func (e *enc) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) count(n int) { e.u32(uint32(n)) }

// EncodeBytes returns the canonical encoding of the snapshot.
func (s *Snapshot) EncodeBytes() []byte {
	e := &enc{buf: make([]byte, 0, 4096)}
	s.encode(e)
	return e.buf
}

// Encode writes the canonical encoding to w, a bounded buffer at a time.
func (s *Snapshot) Encode(w io.Writer) error {
	e := &enc{buf: make([]byte, 0, 2*spillAt), w: w}
	s.encode(e)
	e.flush()
	return e.err
}

func (s *Snapshot) encode(e *enc) {
	e.buf = append(e.buf, magic[:]...)
	e.u32(Version)

	e.f64(s.SimTime)
	e.f64(s.Horizon)
	e.f64(s.FailuresPer5000s)
	e.boolean(s.Forwarding)
	e.f64(s.CoverageSpacing)
	encodeNetConfig(e, &s.Net)

	e.count(len(s.Nodes))
	for i := range s.Nodes {
		encodeNodeState(e, &s.Nodes[i])
		e.spill()
	}
	encodeMediumState(e, &s.Medium)
	encodeInjectorState(e, &s.Injector)
	e.boolean(s.Forward != nil)
	if s.Forward != nil {
		encodeHarnessState(e, s.Forward)
	}
	encodeSamples(e, s.TrackerSamples)
	encodePoints(e, s.WorkingSeries)
	e.f64(s.NextSampleAt)
}

// AppendNetConfig appends the canonical encoding of a network
// configuration to buf and returns the extended slice. It is the same
// encoding Snapshot.EncodeBytes embeds — a pure function of the config
// value with fixed-width little-endian scalars — which makes it usable
// as a content-address: two configs encode identically exactly when they
// would drive identical simulations. The job queue derives its
// result-cache keys from it.
func AppendNetConfig(buf []byte, c *node.Config) []byte {
	e := &enc{buf: buf}
	encodeNetConfig(e, c)
	return e.buf
}

func encodeNetConfig(e *enc, c *node.Config) {
	e.f64(c.Field.Width)
	e.f64(c.Field.Height)
	e.i64(int64(c.N))

	p := &c.Protocol
	e.f64(p.ProbingRange)
	e.f64(p.InitialRate)
	e.f64(p.DesiredRate)
	e.i64(int64(p.EstimatorK))
	e.i64(int64(p.NumProbes))
	e.f64(p.ProbeWindow)
	e.f64(p.ReplyJitterMax)
	e.i64(int64(p.PacketSize))
	e.f64(p.MinRate)
	e.f64(p.MaxRate)
	e.boolean(p.TurnoffEnabled)
	e.boolean(p.StaleEstimates)

	r := &c.Radio
	e.f64(r.BitsPerSecond)
	e.f64(r.MaxRange)
	e.f64(r.LossRate)
	e.boolean(r.CollisionsEnabled)
	e.boolean(r.CSMAEnabled)
	e.f64(r.CSMABackoffMax)
	e.boolean(r.FixedPower)
	e.f64(r.Irregularity)

	e.f64(c.Energy.TransmitW)
	e.f64(c.Energy.ReceiveW)
	e.f64(c.Energy.IdleW)
	e.f64(c.Energy.SleepW)

	e.f64(c.InitialEnergyMin)
	e.f64(c.InitialEnergyMax)
	e.i64(c.Seed)

	e.boolean(c.Positions != nil)
	if c.Positions != nil {
		e.count(len(c.Positions))
		for _, pt := range c.Positions {
			e.f64(pt.X)
			e.f64(pt.Y)
			e.spill()
		}
	}

	e.boolean(c.NodeSeeds != nil)
	if c.NodeSeeds != nil {
		e.count(len(c.NodeSeeds))
		for _, s := range c.NodeSeeds {
			e.i64(s)
		}
	}
}

func encodeRNG(e *enc, st stats.RNGState) {
	e.u64(st.State)
	e.u64(st.Inc)
}

func encodeNodeState(e *enc, st *node.NodeState) {
	e.boolean(st.Alive)
	e.i64(int64(st.Cause))
	e.f64(st.DiedAt)
	e.f64(st.DeathAt)
	encodeRNG(e, st.RNG)

	b := &st.Battery
	e.f64(b.Initial)
	e.f64(b.Remaining)
	e.u8(uint8(b.Mode))
	e.f64(b.LastT)
	e.boolean(b.Dead)
	for _, v := range b.ConsumedByMode {
		e.f64(v)
	}

	encodeProtocolState(e, &st.Proto)
}

func encodeProtocolState(e *enc, p *core.ProtocolState) {
	e.u8(uint8(p.State))
	e.f64(p.StateSince)
	e.f64(p.Lambda)
	e.f64(p.WorkStart)
	e.boolean(p.ReplyPending)
	e.count(len(p.Heard))
	for _, r := range p.Heard {
		e.i64(int64(r.From))
		e.f64(r.RateEstimate)
		e.f64(r.DesiredRate)
		e.f64(r.TimeWorking)
	}
	e.u64(p.Stats.Wakeups)
	e.u64(p.Stats.ProbesSent)
	e.u64(p.Stats.RepliesSent)
	e.u64(p.Stats.RepliesHeard)
	e.u64(p.Stats.RateUpdates)
	e.u64(p.Stats.Turnoffs)
	e.f64(p.Stats.TimeWorking)
	e.f64(p.Stats.TimeSleeping)
	e.f64(p.Stats.TimeProbing)
	e.i64(int64(p.Estimator.N))
	e.f64(p.Estimator.T0)
	e.boolean(p.Estimator.Started)
	e.f64(p.Estimator.Estimate)
	e.i64(int64(p.Estimator.Windows))
	e.count(len(p.Timers))
	for _, t := range p.Timers {
		e.u8(uint8(t.Kind))
		e.i64(int64(t.Probe))
		e.f64(t.At)
	}
}

func encodeMediumState(e *enc, st *radio.MediumState) {
	e.u64(st.Sent)
	e.u64(st.Delivered)
	e.u64(st.Collided)
	e.u64(st.Lost)
	e.u64(st.Deferred)
	e.u64(st.BytesSent)
	e.count(len(st.BusyEnd))
	for _, v := range st.BusyEnd {
		e.f64(v)
		e.spill()
	}
	e.count(len(st.Corrupt))
	for _, v := range st.Corrupt {
		e.boolean(v)
	}
	encodeRNG(e, st.RNG)
}

func encodeInjectorState(e *enc, st *failure.InjectorState) {
	e.i64(int64(st.Injected))
	e.count(len(st.Victims))
	for _, v := range st.Victims {
		e.i64(int64(v))
	}
	e.boolean(st.Stopped)
	e.f64(st.NextAt)
	encodeRNG(e, st.RNG)
}

func encodeHarnessState(e *enc, st *forward.HarnessState) {
	e.i64(int64(st.Generated))
	e.i64(int64(st.Succeeded))
	encodePoints(e, st.RatioPoints)
	encodePoints(e, st.HopsPoints)
	encodeRNG(e, st.RNG)
	e.f64(st.NextGenAt)
}

func encodePoints(e *enc, pts []metrics.Point) {
	e.count(len(pts))
	for _, p := range pts {
		e.f64(p.T)
		e.f64(p.V)
		e.spill()
	}
}

func encodeSamples(e *enc, samples []coverage.Sample) {
	e.count(len(samples))
	for _, s := range samples {
		e.f64(s.T)
		e.count(len(s.ByK))
		for _, v := range s.ByK {
			e.f64(v)
		}
		e.spill()
	}
}

// --- decoder ---

type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// boolean accepts only the canonical encodings 0 and 1, so every accepted
// input re-encodes byte-identically.
func (d *dec) boolean() bool {
	switch d.u8() {
	case 1:
		return true
	case 0:
		return false
	default:
		d.fail("non-canonical boolean")
		return false
	}
}

// count reads a sequence length and validates it against the bytes left,
// assuming each element occupies at least minElem bytes, so a corrupted
// length cannot drive a huge allocation.
func (d *dec) count(minElem int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*minElem > len(d.buf)-d.off {
		d.fail("sequence length exceeds remaining input")
		return 0
	}
	return n
}

// DecodeBytes parses a canonical snapshot encoding. Corrupted or
// truncated input yields an error wrapping ErrCorrupt (never a panic);
// snapshots from other format versions yield ErrVersion.
func DecodeBytes(data []byte) (*Snapshot, error) {
	d := &dec{buf: data}
	head := d.take(len(magic))
	if d.err != nil || [8]byte(head) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.u32(); d.err == nil && v != Version {
		return nil, fmt.Errorf("%w: got %d, this build reads %d", ErrVersion, v, Version)
	}

	s := &Snapshot{}
	s.SimTime = d.f64()
	s.Horizon = d.f64()
	s.FailuresPer5000s = d.f64()
	s.Forwarding = d.boolean()
	s.CoverageSpacing = d.f64()
	decodeNetConfig(d, &s.Net)

	n := d.count(8)
	if n > 0 {
		s.Nodes = make([]node.NodeState, n)
		for i := range s.Nodes {
			decodeNodeState(d, &s.Nodes[i])
		}
	}
	decodeMediumState(d, &s.Medium)
	decodeInjectorState(d, &s.Injector)
	if d.boolean() {
		s.Forward = &forward.HarnessState{}
		decodeHarnessState(d, s.Forward)
	}
	s.TrackerSamples = decodeSamples(d)
	s.WorkingSeries = decodePoints(d)
	s.NextSampleAt = d.f64()

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
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

func decodeNetConfig(d *dec, c *node.Config) {
	c.Field.Width = d.f64()
	c.Field.Height = d.f64()
	c.N = int(d.i64())

	p := &c.Protocol
	p.ProbingRange = d.f64()
	p.InitialRate = d.f64()
	p.DesiredRate = d.f64()
	p.EstimatorK = int(d.i64())
	p.NumProbes = int(d.i64())
	p.ProbeWindow = d.f64()
	p.ReplyJitterMax = d.f64()
	p.PacketSize = int(d.i64())
	p.MinRate = d.f64()
	p.MaxRate = d.f64()
	p.TurnoffEnabled = d.boolean()
	p.StaleEstimates = d.boolean()

	r := &c.Radio
	r.BitsPerSecond = d.f64()
	r.MaxRange = d.f64()
	r.LossRate = d.f64()
	r.CollisionsEnabled = d.boolean()
	r.CSMAEnabled = d.boolean()
	r.CSMABackoffMax = d.f64()
	r.FixedPower = d.boolean()
	r.Irregularity = d.f64()

	c.Energy.TransmitW = d.f64()
	c.Energy.ReceiveW = d.f64()
	c.Energy.IdleW = d.f64()
	c.Energy.SleepW = d.f64()

	c.InitialEnergyMin = d.f64()
	c.InitialEnergyMax = d.f64()
	c.Seed = d.i64()

	if d.boolean() {
		n := d.count(16)
		c.Positions = make([]geom.Point, n)
		for i := range c.Positions {
			c.Positions[i].X = d.f64()
			c.Positions[i].Y = d.f64()
		}
	}

	if d.boolean() {
		n := d.count(8)
		c.NodeSeeds = make([]int64, n)
		for i := range c.NodeSeeds {
			c.NodeSeeds[i] = d.i64()
		}
	}
}

func decodeRNG(d *dec) stats.RNGState {
	return stats.RNGState{State: d.u64(), Inc: d.u64()}
}

func decodeNodeState(d *dec, st *node.NodeState) {
	st.Alive = d.boolean()
	st.Cause = node.DeathCause(d.i64())
	st.DiedAt = d.f64()
	st.DeathAt = d.f64()
	st.RNG = decodeRNG(d)

	b := &st.Battery
	b.Initial = d.f64()
	b.Remaining = d.f64()
	b.Mode = energy.Mode(d.u8())
	b.LastT = d.f64()
	b.Dead = d.boolean()
	for i := range b.ConsumedByMode {
		b.ConsumedByMode[i] = d.f64()
	}

	decodeProtocolState(d, &st.Proto)
}

func decodeProtocolState(d *dec, p *core.ProtocolState) {
	p.State = core.State(d.u8())
	p.StateSince = d.f64()
	p.Lambda = d.f64()
	p.WorkStart = d.f64()
	p.ReplyPending = d.boolean()
	if n := d.count(32); n > 0 {
		p.Heard = make([]core.Reply, n)
		for i := range p.Heard {
			p.Heard[i].From = core.NodeID(d.i64())
			p.Heard[i].RateEstimate = d.f64()
			p.Heard[i].DesiredRate = d.f64()
			p.Heard[i].TimeWorking = d.f64()
		}
	}
	p.Stats.Wakeups = d.u64()
	p.Stats.ProbesSent = d.u64()
	p.Stats.RepliesSent = d.u64()
	p.Stats.RepliesHeard = d.u64()
	p.Stats.RateUpdates = d.u64()
	p.Stats.Turnoffs = d.u64()
	p.Stats.TimeWorking = d.f64()
	p.Stats.TimeSleeping = d.f64()
	p.Stats.TimeProbing = d.f64()
	p.Estimator.N = int(d.i64())
	p.Estimator.T0 = d.f64()
	p.Estimator.Started = d.boolean()
	p.Estimator.Estimate = d.f64()
	p.Estimator.Windows = int(d.i64())
	if n := d.count(17); n > 0 {
		p.Timers = make([]core.TimerRec, n)
		for i := range p.Timers {
			p.Timers[i].Kind = core.TimerKind(d.u8())
			p.Timers[i].Probe = int(d.i64())
			p.Timers[i].At = d.f64()
		}
	}
}

func decodeMediumState(d *dec, st *radio.MediumState) {
	st.Sent = d.u64()
	st.Delivered = d.u64()
	st.Collided = d.u64()
	st.Lost = d.u64()
	st.Deferred = d.u64()
	st.BytesSent = d.u64()
	if n := d.count(8); n > 0 {
		st.BusyEnd = make([]float64, n)
		for i := range st.BusyEnd {
			st.BusyEnd[i] = d.f64()
		}
	}
	if n := d.count(1); n > 0 {
		st.Corrupt = make([]bool, n)
		for i := range st.Corrupt {
			st.Corrupt[i] = d.boolean()
		}
	}
	st.RNG = decodeRNG(d)
}

func decodeInjectorState(d *dec, st *failure.InjectorState) {
	st.Injected = int(d.i64())
	if n := d.count(8); n > 0 {
		st.Victims = make([]core.NodeID, n)
		for i := range st.Victims {
			st.Victims[i] = core.NodeID(d.i64())
		}
	}
	st.Stopped = d.boolean()
	st.NextAt = d.f64()
	st.RNG = decodeRNG(d)
}

func decodeHarnessState(d *dec, st *forward.HarnessState) {
	st.Generated = int(d.i64())
	st.Succeeded = int(d.i64())
	st.RatioPoints = decodePoints(d)
	st.HopsPoints = decodePoints(d)
	st.RNG = decodeRNG(d)
	st.NextGenAt = d.f64()
}

func decodePoints(d *dec) []metrics.Point {
	n := d.count(16)
	if n == 0 {
		return nil
	}
	pts := make([]metrics.Point, n)
	for i := range pts {
		pts[i].T = d.f64()
		pts[i].V = d.f64()
	}
	return pts
}

func decodeSamples(d *dec) []coverage.Sample {
	n := d.count(12)
	if n == 0 {
		return nil
	}
	samples := make([]coverage.Sample, n)
	for i := range samples {
		samples[i].T = d.f64()
		if k := d.count(8); k > 0 {
			samples[i].ByK = make([]float64, k)
			for j := range samples[i].ByK {
				samples[i].ByK[j] = d.f64()
			}
		}
	}
	return samples
}
