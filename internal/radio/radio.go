// Package radio simulates the broadcast wireless medium the PEAS protocol
// runs over. It models what the paper's PARSEC/Motes substrate provided:
//
//   - range-limited broadcast with selectable per-packet transmission power
//     (paper §2: "each sensor node may vary its transmission power and
//     choose a power level to cover a circular area given a radius");
//   - finite link capacity (20 Kbps), so a 25-byte PROBE occupies the
//     channel for 10 ms;
//   - collisions: a listening node covered by two temporally overlapping
//     transmissions receives neither;
//   - optional i.i.d. packet loss (for the §4 loss-compensation study);
//   - optional fixed-transmission-power mode with a received-signal
//     threshold filter (paper §4).
//
// Energy is charged to the transmitter and to every listening node in
// range for the packet's airtime.
package radio

import (
	"fmt"
	"math"

	"peas/internal/geom"
	"peas/internal/sim"
	"peas/internal/stats"
)

// NodeID identifies a node on the medium; it is the node's index in the
// deployment.
type NodeID int

// Packet is a frame on the medium. Payload semantics belong to the
// protocol layer; the radio only needs the size for airtime and energy.
//
// A payload sent with BroadcastArg goes back to its sender for reuse once
// the medium holds no event of the frame, so neither receivers nor
// observers (OnTransmit, and the node layer's hooks) may keep a payload
// after their callback returns: copy what is needed out of it.
type Packet struct {
	From    NodeID
	Size    int     // bytes
	Range   float64 // requested coverage radius, meters
	Payload any
}

// Receiver is the protocol-facing endpoint for one node.
type Receiver interface {
	// Listening reports whether the node's radio is powered on. Sleeping
	// nodes return false and receive nothing. The medium reads it once, in
	// Attach, and keeps its own power flag per receiver from then on: the
	// owner reports every change through Medium.SetListening.
	Listening() bool
	// Deliver hands a successfully received packet (with the measured
	// distance from the transmitter) to the protocol layer.
	Deliver(pkt Packet, dist float64)
}

// FaultDecision is the fate a FaultInjector assigns to one (frame,
// receiver) pair. The zero value is "deliver normally".
type FaultDecision struct {
	// Drop discards the frame before delivery (the airtime energy is
	// still charged: the bits were on the air, the payload was lost).
	Drop bool
	// Copies is how many extra duplicate deliveries to schedule, modelling
	// a duplicating channel or link-layer retransmissions.
	Copies int
	// Delay is extra latency in seconds added to the delivery (and to any
	// duplicates), modelling queueing or reordering: a delayed frame can
	// arrive after frames transmitted later.
	Delay float64
}

// FaultInjector decides, per (frame, receiver) pair, whether the chaos
// layer drops, duplicates or delays the delivery. Implementations must be
// deterministic functions of their own seeded RNG streams so faulted runs
// stay exactly reproducible. The medium consults the injector after the
// collision model: collisions are physics, injected faults come on top.
type FaultInjector interface {
	JudgeFrame(from, to NodeID) FaultDecision
}

// EnergySink receives per-packet energy charges. The node layer implements
// it on top of the battery model.
type EnergySink interface {
	// SpendTx charges the transmitting node for seconds of airtime.
	SpendTx(id NodeID, seconds float64)
	// SpendRx charges a listening node for seconds of airtime.
	SpendRx(id NodeID, seconds float64)
}

// Config sets the physical-layer parameters.
type Config struct {
	// BitsPerSecond is the raw channel capacity (paper: 20 Kbps).
	BitsPerSecond float64
	// MaxRange caps any requested transmission range (paper: 10 m).
	MaxRange float64
	// LossRate is an i.i.d. per-receiver drop probability in [0,1).
	LossRate float64
	// CollisionsEnabled turns the overlap-collision model on.
	CollisionsEnabled bool
	// CSMAEnabled makes transmitters carrier-sense: a node that can hear
	// an ongoing transmission defers its own until the channel clears,
	// plus a random backoff. Motes-class radios carrier-sense; without
	// it, a working node's multiple REPLYs (§4) collide with each other.
	CSMAEnabled bool
	// CSMABackoffMax is the maximum random deferral added after the
	// channel clears, in seconds. Zero selects 5 ms.
	CSMABackoffMax float64
	// FixedPower, when true, transmits every packet at MaxRange and lets
	// receivers apply a signal-strength threshold equivalent to the
	// requested Range (paper §4, "Nodes with fixed transmission power").
	FixedPower bool
	// Irregularity sets the degree of per-area signal-attenuation
	// irregularity in [0, 1): each ~5 m region draws a reception quality
	// q in [1-irr, 1+irr] and perceives transmitters at effective
	// distance dist/q (paper §4). Zero disables the model.
	Irregularity float64
}

// DefaultConfig returns the paper's physical layer: 20 Kbps, 10 m maximum
// range, collisions on, no extra random loss.
func DefaultConfig() Config {
	return Config{
		BitsPerSecond:     20000,
		MaxRange:          10,
		LossRate:          0,
		CollisionsEnabled: true,
		CSMAEnabled:       true,
		CSMABackoffMax:    0.005,
	}
}

// frame is one pooled transmission: the packet, and a count of what still
// holds it — the caller until send returns, a carrier-sense retry, or its
// scheduled deliveries and their fault duplicates. When the last holder
// lets go, release (if any) gets the payload back and the record returns
// to the medium's free list.
type frame struct {
	pkt     Packet
	release func(any)
	holds   int32
	next    *frame // free-list link
}

// unhold drops one hold on f and recycles it after the last.
func (m *Medium) unhold(f *frame) {
	if f.holds--; f.holds > 0 {
		return
	}
	if f.release != nil {
		f.release(f.pkt.Payload)
	}
	*f = frame{next: m.freeFrame}
	m.freeFrame = f
}

// delivery is one pooled in-flight reception record. A single record serves
// every scheduled copy of a (frame, receiver) pair — fault-injected
// duplicates share it instead of allocating one closure per copy — and is
// returned to the medium's free list when the last copy lands. Each copy
// holds the frame.
type delivery struct {
	m      *Medium
	to     int32
	copies int32 // scheduled copies still to execute
	dist   float64
	f      *frame
	next   *delivery // free-list link
}

// runDelivery is the shared engine callback for every delivery record.
func runDelivery(a any) {
	d := a.(*delivery)
	m, f := d.m, d.f
	m.inflight--
	d.copies--
	m.deliver(int(d.to), f.pkt, d.dist)
	if d.copies <= 0 {
		d.f = nil
		d.next = m.freeDel
		m.freeDel = d
	}
	m.unhold(f)
}

// deferral is one pooled carrier-sense retry record; it holds its frame.
type deferral struct {
	m    *Medium
	f    *frame
	next *deferral // free-list link
}

// runDeferral is the shared engine callback for every deferral record.
func runDeferral(a any) {
	r := a.(*deferral)
	m, f := r.m, r.f
	m.inflight--
	// Free the record before re-sending: a renewed deferral reuses it.
	r.f = nil
	r.next = m.freeDef
	m.freeDef = r
	// The sender may have slept or died during the deferral; a powered-down
	// radio cannot resume the transmission.
	if !m.listening[f.pkt.From] {
		m.unhold(f)
		return
	}
	m.send(f)
}

// Medium is the shared broadcast channel.
type Medium struct {
	cfg     Config
	engine  *sim.Engine
	idx     *geom.Index
	rng     *stats.RNG
	nodes   []Receiver
	sink    EnergySink
	quality *qualityField // nil when irregularity is off
	busyEnd []sim.Time    // per-receiver: end of last reception overlapping now
	corrupt []bool        // per-receiver: current reception window corrupted
	// listening is each receiver's power flag, seeded by Attach and kept by
	// SetListening: one dense read per sweep candidate instead of an
	// interface call into the node.
	listening []bool
	freeFrame *frame    // transmission pool
	freeDel   *delivery // delivery-record pool
	freeDef   *deferral // carrier-sense retry pool
	// inflight counts engine events the medium still owes: pending
	// deliveries and carrier-sense retries. The checkpoint subsystem only
	// snapshots when it is zero — a quiescent radio boundary — so frames
	// in flight never need to be serialized.
	inflight int

	// OnTransmit, when set, observes every frame put on the air. It fires
	// after carrier-sense deferrals resolve, at the moment the
	// transmission actually starts. Observers must be read-only.
	OnTransmit func(pkt Packet)

	// faults, when non-nil, is the chaos layer's per-delivery hook.
	faults FaultInjector

	// Counters for the experiment harness.
	sent      uint64
	delivered uint64
	collided  uint64
	lost      uint64
	deferred  uint64
	bytesSent uint64
	// deliveries counts the delivery events this medium scheduled. Unlike
	// the counters above it is this process's own tally, not part of the
	// snapshot: it says where a run's engine events came from.
	deliveries uint64

	// tables are the neighbour tables built so far, one per query range.
	tables []*geom.Neighbors
}

// NewMedium builds a medium over the deployed positions. Receivers are
// attached afterwards with Attach, one per deployed point.
func NewMedium(cfg Config, engine *sim.Engine, idx *geom.Index, rng *stats.RNG, sink EnergySink) *Medium {
	n := idx.Len()
	m := &Medium{
		cfg:       cfg,
		engine:    engine,
		idx:       idx,
		rng:       rng,
		nodes:     make([]Receiver, n),
		sink:      sink,
		busyEnd:   make([]sim.Time, n),
		corrupt:   make([]bool, n),
		listening: make([]bool, n),
	}
	if cfg.Irregularity > 0 {
		// A coarse per-area field large enough to cover every indexed
		// position; the field dimensions are recovered from the index.
		var maxX, maxY float64
		for i := 0; i < n; i++ {
			p := idx.At(i)
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		m.quality = newQualityField(geom.NewField(maxX+1, maxY+1), cfg.Irregularity, rng.Split())
	}
	return m
}

// Attach registers the receiver for node id and seeds its power flag from
// r.Listening().
func (m *Medium) Attach(id NodeID, r Receiver) {
	m.nodes[id] = r
	m.listening[id] = r != nil && r.Listening()
}

// SetListening records that node id's radio is now powered on or off. The
// owner of an attached receiver calls it whenever the receiver's Listening
// answer changes: sweeps, deliveries and carrier-sense retries read this
// flag, not the receiver.
func (m *Medium) SetListening(id NodeID, on bool) { m.listening[id] = on }

// Listening returns node id's power flag as the medium holds it. The
// invariant oracle checks it against the receiver's own answer.
func (m *Medium) Listening(id NodeID) bool { return m.listening[id] }

// Airtime returns the channel occupancy of a packet of size bytes.
func (m *Medium) Airtime(size int) float64 {
	return float64(size) * 8 / m.cfg.BitsPerSecond
}

// Stats reports medium counters: packets sent, delivered, lost to
// collisions, lost to random drops, and total bytes transmitted.
func (m *Medium) Stats() (sent, delivered, collided, lost, bytes uint64) {
	return m.sent, m.delivered, m.collided, m.lost, m.bytesSent
}

// Deferred reports how many transmissions carrier sense postponed.
func (m *Medium) Deferred() uint64 { return m.deferred }

// DeliveryEvents reports how many delivery events the medium has scheduled
// since it was built (a restore does not carry the count over).
func (m *Medium) DeliveryEvents() uint64 { return m.deliveries }

// SetFaultInjector installs (or, with nil, removes) the chaos layer's
// per-delivery fault hook. Runs with an injector installed are still
// deterministic, but their state is not captured by Snapshot, so chaos
// campaigns do not support checkpoint resume.
func (m *Medium) SetFaultInjector(f FaultInjector) { m.faults = f }

// Faults returns the installed fault injector, or nil. The invariant
// oracle uses it to detect chaos runs and relax loss-sensitive checks.
func (m *Medium) Faults() FaultInjector { return m.faults }

// InFlight returns the number of pending medium events: deliveries whose
// airtime has not elapsed plus carrier-sense retries. Zero means the
// channel is quiescent and the medium state is fully captured by
// Snapshot.
func (m *Medium) InFlight() int { return m.inflight }

// MediumState is the serializable state of the medium at a quiescent
// boundary: the traffic counters, the per-receiver channel-occupancy
// bookkeeping, and the loss/backoff RNG stream.
type MediumState struct {
	Sent, Delivered, Collided, Lost, Deferred, BytesSent uint64

	BusyEnd []float64
	Corrupt []bool
	RNG     stats.RNGState
}

// Snapshot captures the medium state. It must only be called when
// InFlight() == 0; frames in flight are not representable.
func (m *Medium) Snapshot() MediumState {
	return MediumState{
		Sent:      m.sent,
		Delivered: m.delivered,
		Collided:  m.collided,
		Lost:      m.lost,
		Deferred:  m.deferred,
		BytesSent: m.bytesSent,
		BusyEnd:   append([]float64(nil), m.busyEnd...),
		Corrupt:   append([]bool(nil), m.corrupt...),
		RNG:       m.rng.State(),
	}
}

// Restore overwrites the medium's mutable state with a captured one. The
// static parts — config, index, quality field — are rebuilt by
// reconstructing the medium from its config first.
func (m *Medium) Restore(st MediumState) error {
	if len(st.BusyEnd) != len(m.busyEnd) || len(st.Corrupt) != len(m.corrupt) {
		return fmt.Errorf("radio: snapshot is for %d receivers, medium has %d",
			len(st.BusyEnd), len(m.busyEnd))
	}
	m.sent = st.Sent
	m.delivered = st.Delivered
	m.collided = st.Collided
	m.lost = st.Lost
	m.deferred = st.Deferred
	m.bytesSent = st.BytesSent
	copy(m.busyEnd, st.BusyEnd)
	copy(m.corrupt, st.Corrupt)
	m.rng.Restore(st.RNG)
	return nil
}

// Broadcast transmits pkt from its sender's deployed position. Delivery
// callbacks run one airtime later. The transmitter is charged airtime at
// TX power; every listening node inside the physical coverage is charged
// airtime at RX power whether or not the frame survives.
func (m *Medium) Broadcast(pkt Packet) { m.BroadcastArg(pkt, nil) }

// BroadcastArg is Broadcast for a payload its sender reuses: once no
// delivery, fault duplicate or carrier-sense retry of the frame is left —
// at once, for a frame that is never sent or reaches no one — the medium
// calls release(pkt.Payload), and never touches the payload again. A nil
// release makes it Broadcast.
func (m *Medium) BroadcastArg(pkt Packet, release func(any)) {
	f := m.freeFrame
	if f != nil {
		m.freeFrame = f.next
		f.next = nil
	} else {
		f = new(frame)
	}
	f.pkt, f.release, f.holds = pkt, release, 1
	m.send(f)
}

// send puts f on the air, or defers it while carrier sense hears the
// channel busy; either way it passes on the caller's hold on f.
func (m *Medium) send(f *frame) {
	pkt := &f.pkt
	if pkt.Range > m.cfg.MaxRange {
		pkt.Range = m.cfg.MaxRange
	}
	if pkt.Range <= 0 {
		m.unhold(f)
		return
	}
	airtime := m.Airtime(pkt.Size)
	now := m.engine.Now()

	// Carrier sense: defer while the channel is audibly busy at the
	// transmitter (including its own previous transmission). The retry is
	// a pooled record, not a fresh closure.
	if m.cfg.CSMAEnabled && m.busyEnd[pkt.From] > now {
		backoffMax := m.cfg.CSMABackoffMax
		if backoffMax <= 0 {
			backoffMax = 0.005
		}
		m.deferred++
		delay := m.busyEnd[pkt.From] - now + m.rng.Uniform(0, backoffMax)
		r := m.freeDef
		if r != nil {
			m.freeDef = r.next
			r.next = nil
		} else {
			r = &deferral{m: m}
		}
		r.f = f
		m.inflight++
		m.engine.ScheduleArg(delay, runDeferral, r)
		return
	}
	if m.OnTransmit != nil {
		m.OnTransmit(*pkt)
	}
	m.sent++
	m.bytesSent += uint64(pkt.Size)
	m.sink.SpendTx(pkt.From, airtime)

	// Physical coverage: with fixed power the signal reaches MaxRange and
	// receivers filter by strength; with variable power it reaches
	// exactly the requested range.
	physRange := pkt.Range
	if m.cfg.FixedPower {
		physRange = m.cfg.MaxRange
	}

	end := now + airtime
	// The transmitter occupies its own channel for the airtime, so its
	// next carrier-sensed transmission starts after this one ends.
	if end > m.busyEnd[pkt.From] {
		m.busyEnd[pkt.From] = end
	}
	// With irregular attenuation, good-reception areas hear farther.
	queryRange := physRange
	if m.quality != nil {
		queryRange = physRange * (1 + m.cfg.Irregularity)
	}
	// The candidates are the sender's row of the neighbour table for this
	// range — Within2's visit order and squared distances, worked out once
	// because nothing moves — or, for a range past the handful of tables
	// kept, the index sweep itself. Counter updates are batched in sw and
	// flushed once after the sweep; nothing can observe the medium counters
	// mid-event.
	// Fields are set one by one: a composite literal is built in a
	// temporary and block-copied into sw.
	var sw sweep
	sw.f, sw.from, sw.reqRange, sw.airtime = f, pkt.From, pkt.Range, airtime
	sw.now, sw.end, sw.physRange = now, end, physRange
	if nb := m.neighbors(queryRange); nb != nil {
		ids, d2 := nb.Row(int(pkt.From))
		for k, id := range ids {
			m.receive(&sw, int(id), d2[k])
		}
	} else {
		m.idx.Within2(m.idx.At(int(pkt.From)), queryRange, func(i int, d2 float64) { m.receive(&sw, i, d2) })
	}
	m.collided += sw.collided
	m.lost += sw.lost
	m.deliveries += sw.deliveries
	m.unhold(f)
}

// maxNeighborTables bounds the neighbour tables a medium keeps. A PEAS run
// queries one range (PROBE and REPLY share Rp; irregularity and fixed power
// each turn it into one other constant), a run with data traffic a second.
const maxNeighborTables = 4

// neighbors returns the neighbour table for queryRange, building it on the
// first broadcast at that range, or nil once maxNeighborTables other ranges
// hold tables.
func (m *Medium) neighbors(queryRange float64) *geom.Neighbors {
	for _, nb := range m.tables {
		if nb.Radius() == queryRange {
			return nb
		}
	}
	if len(m.tables) == maxNeighborTables {
		return nil
	}
	nb := m.idx.Neighbors(queryRange)
	m.tables = append(m.tables, nb)
	return nb
}

// sweep is what one transmission's receiver sweep shares between its
// candidates: the frame, its timing, and the batched counter updates.
type sweep struct {
	f         *frame
	from      NodeID
	reqRange  float64
	airtime   float64
	now, end  sim.Time
	physRange float64

	collided, lost, deliveries uint64
}

// receive is the per-candidate body of a sweep: node i, at squared
// distance d2 from the transmitter and inside the query range. It works on
// the squared distance and takes the Sqrt only for frames that survive the
// filters. When a distance-derived quantity feeds a legacy comparison
// (irregularity, fixed power) the exact historical arithmetic — Sqrt first,
// then divide/compare — is reproduced so trajectories stay bit-identical.
func (m *Medium) receive(sw *sweep, i int, d2 float64) {
	if NodeID(i) == sw.from || !m.listening[i] {
		return
	}
	dist := -1.0 // computed lazily from d2
	if m.quality != nil {
		// Effective distance at the receiver's area quality.
		dist = math.Sqrt(d2) / m.quality.at(m.idx.At(i))
		if dist > sw.physRange {
			return
		}
	}
	m.sink.SpendRx(NodeID(i), sw.airtime)

	corrupted := false
	if m.cfg.CollisionsEnabled {
		if m.busyEnd[i] > sw.now {
			// Overlapping reception: both frames are lost.
			m.corrupt[i] = true
			corrupted = true
			sw.collided++
		} else {
			m.corrupt[i] = false
		}
		if sw.end > m.busyEnd[i] {
			m.busyEnd[i] = sw.end
		}
	}
	if !corrupted && m.cfg.LossRate > 0 && m.rng.Float64() < m.cfg.LossRate {
		sw.lost++
		return
	}
	// Threshold filter under fixed power: the receiver only reacts
	// to frames whose strength corresponds to the requested range.
	if m.cfg.FixedPower {
		if dist < 0 {
			dist = math.Sqrt(d2)
		}
		if dist > sw.reqRange {
			return
		}
	}
	deliverAt := sw.end
	copies := 1
	if m.faults != nil {
		fd := m.faults.JudgeFrame(sw.from, NodeID(i))
		if fd.Drop {
			return
		}
		deliverAt += fd.Delay
		copies += fd.Copies
	}
	if dist < 0 {
		dist = math.Sqrt(d2)
	}
	d := m.freeDel
	if d != nil {
		m.freeDel = d.next
		d.next = nil
	} else {
		d = &delivery{m: m}
	}
	d.to = int32(i)
	d.copies = int32(copies)
	d.dist = dist
	d.f = sw.f
	sw.f.holds += int32(copies)
	for c := 0; c < copies; c++ {
		m.inflight++
		m.engine.AtArg(deliverAt, runDelivery, d)
	}
	sw.deliveries += uint64(copies)
}

func (m *Medium) deliver(i int, pkt Packet, dist float64) {
	if !m.listening[i] {
		// The node slept or died while the frame was in flight.
		return
	}
	if m.cfg.CollisionsEnabled && m.corrupt[i] {
		// The window this frame belonged to was corrupted by overlap.
		// The flag resets when a new non-overlapping window starts.
		return
	}
	m.delivered++
	m.nodes[i].Deliver(pkt, dist)
}
