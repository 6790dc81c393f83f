// Package grab implements GRAB-style cost-field data forwarding at the
// packet level, over the same radio medium the PEAS protocol uses. It is
// the full-fidelity counterpart of internal/forward (which models delivery
// as working-set connectivity):
//
//   - the sink periodically floods an ADV frame; every working node keeps
//     its cost — the minimum hop count to the sink heard so far this
//     epoch — and rebroadcasts once per epoch (a classic gradient flood);
//   - the source broadcasts each report with the cost of its best
//     neighbor; a working node forwards a report iff its own cost is
//     lower than the cost stamped in the frame (so frames flow strictly
//     downhill, GRAB's mesh), at most once per report;
//   - the sink counts a report as delivered the first time it hears it.
//
// Because frames ride the real medium, deliveries experience airtime,
// carrier sense, collisions and losses. internal/forward remains the
// default for lifetime sweeps (it is ~20x cheaper); package grab exists
// to validate that abstraction and to study MAC effects on data traffic
// (see grabCheckStudy in internal/experiment).
package grab

import (
	"math"

	"peas/internal/core"
	"peas/internal/geom"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/radio"
	"peas/internal/stats"
)

// Frame types carried in radio packets.
type Adv struct {
	// Epoch identifies the flood round.
	Epoch int
	// Cost is the hop distance of the transmitter from the sink.
	Cost int
}

// Report is one data report in flight.
type Report struct {
	// Seq identifies the report.
	Seq int
	// Cost is the transmitter's cost; receivers forward only if their
	// own cost is strictly lower (downhill rule).
	Cost int
}

// Config parameterizes the packet-level workload.
type Config struct {
	// Source and Sink positions (paper: opposite corners).
	Source geom.Point
	Sink   geom.Point
	// Period between report generations (paper: 10 s).
	Period float64
	// AdvPeriod between sink cost-field floods.
	AdvPeriod float64
	// ReportSize and AdvSize in bytes.
	ReportSize int
	AdvSize    int
	// HopRange for data frames (paper: max transmitting range, 10 m).
	HopRange float64
	// ForwardJitterMax bounds the random delay before a node
	// rebroadcasts an ADV or report, de-synchronizing the flood.
	ForwardJitterMax float64
}

// DefaultConfig returns the paper-shaped workload for the given field.
func DefaultConfig(field geom.Field) Config {
	return Config{
		Source:           geom.Point{X: 1, Y: 1},
		Sink:             geom.Point{X: field.Width - 1, Y: field.Height - 1},
		Period:           10,
		AdvPeriod:        100,
		ReportSize:       64,
		AdvSize:          25,
		HopRange:         10,
		ForwardJitterMax: 0.05,
	}
}

// nodeState is the per-node GRAB state: a cost and per-epoch/report
// dedup flags. Costs live outside the PEAS protocol, as the paper's
// layering prescribes (PEAS maintains the working set; GRAB rides it).
type nodeState struct {
	cost      int
	epoch     int
	advSent   bool
	forwarded map[int]bool // report seq -> already relayed
}

// Harness runs the packet-level workload on a network. The source and
// sink are modelled as two extra radio endpoints at fixed positions: the
// sink floods ADVs and counts deliveries; the source stamps and emits
// reports.
type Harness struct {
	cfg   Config
	net   *node.Network
	rng   *stats.RNG
	state []nodeState
	ratio *metrics.Ratio

	epoch     int
	seq       int
	delivered map[int]bool
	// sinkCostOfSource caches whether the source currently has a
	// finite-cost neighbor (set when generating).
	generated int
}

// NewHarness attaches the packet-level GRAB workload. Call Start before
// running.
func NewHarness(cfg Config, net *node.Network) *Harness {
	h := &Harness{
		cfg:       cfg,
		net:       net,
		rng:       stats.NewRNG(net.Config().Seed ^ 0x6a7a5),
		state:     make([]nodeState, len(net.Nodes)),
		ratio:     metrics.NewRatio("grab-success"),
		delivered: make(map[int]bool),
	}
	for i := range h.state {
		h.state[i].cost = math.MaxInt32
		h.state[i].forwarded = make(map[int]bool)
	}
	return h
}

// Start hooks frame delivery and schedules the ADV flood and report
// generation.
func (h *Harness) Start() {
	h.net.Observe(node.Observer{Deliver: func(id core.NodeID, pkt radio.Packet, _ float64) {
		h.onFrame(id, pkt)
	}})
	h.net.Engine.NewTicker(h.cfg.AdvPeriod, h.flood)
	// First flood immediately after boot so early reports have a field.
	h.net.Engine.Schedule(1, h.flood)
	h.net.Engine.NewTicker(h.cfg.Period, h.generate)
}

// flood starts a new cost-field epoch from the sink. Per-node state is
// not reset here: nodes keep their previous cost (so reports keep flowing
// during the refresh) and roll over when the new epoch's ADV reaches
// them.
func (h *Harness) flood() {
	h.epoch++
	// The sink transmits ADV(cost=0) from its corner: deliver it to
	// working nodes in range directly (the sink is not an indexed node,
	// so emulate its broadcast with a range query).
	h.injectAt(h.cfg.Sink, Adv{Epoch: h.epoch, Cost: 0})
}

// injectAt delivers a frame from an off-network endpoint (source or sink)
// to every listening working node within HopRange of pos.
func (h *Harness) injectAt(pos geom.Point, payload any) {
	h.net.Index.Within(pos, h.cfg.HopRange, func(i int, _ float64) {
		n := h.net.Nodes[i]
		if n.Working() {
			h.handle(core.NodeID(i), payload)
		}
	})
}

// onFrame handles frames relayed between in-network nodes.
func (h *Harness) onFrame(id core.NodeID, pkt radio.Packet) {
	switch pkt.Payload.(type) {
	case Adv, Report:
		h.handle(id, pkt.Payload)
	}
}

func (h *Harness) handle(id core.NodeID, payload any) {
	n := h.net.Nodes[id]
	if !n.Working() {
		return // only working nodes participate in the gradient
	}
	st := &h.state[id]
	switch msg := payload.(type) {
	case Adv:
		switch {
		case msg.Epoch > st.epoch:
			// New epoch reaches this node: adopt and rebroadcast once.
			st.epoch = msg.Epoch
			st.cost = msg.Cost + 1
			st.advSent = false
			// Report-dedup entries from finished reports can go now.
			if len(st.forwarded) > 1024 {
				st.forwarded = make(map[int]bool)
			}
		case msg.Epoch == st.epoch && msg.Cost+1 < st.cost:
			// Same epoch, better gradient: adopt silently (one ADV per
			// node per epoch keeps the flood linear in nodes).
			st.cost = msg.Cost + 1
		default:
			return
		}
		if st.advSent {
			return
		}
		st.advSent = true
		cost := st.cost
		h.net.Engine.Schedule(h.rng.Uniform(0, h.cfg.ForwardJitterMax), func() {
			if !n.Working() {
				return
			}
			h.net.Medium.Broadcast(radio.Packet{
				From:    radio.NodeID(id),
				Size:    h.cfg.AdvSize,
				Range:   h.cfg.HopRange,
				Payload: Adv{Epoch: h.epoch, Cost: cost},
			})
		})
	case Report:
		if st.forwarded[msg.Seq] || st.cost >= msg.Cost {
			return // not downhill from the transmitter, or already sent
		}
		st.forwarded[msg.Seq] = true
		// Delivery check: the sink hears any transmission within range.
		if n.Pos().Dist(h.cfg.Sink) <= h.cfg.HopRange {
			h.deliver(msg.Seq)
		}
		cost := st.cost
		h.net.Engine.Schedule(h.rng.Uniform(0, h.cfg.ForwardJitterMax), func() {
			if !n.Working() {
				return
			}
			h.net.Medium.Broadcast(radio.Packet{
				From:    radio.NodeID(id),
				Size:    h.cfg.ReportSize,
				Range:   h.cfg.HopRange,
				Payload: Report{Seq: msg.Seq, Cost: cost},
			})
		})
	}
}

func (h *Harness) deliver(seq int) {
	if h.delivered[seq] {
		return
	}
	h.delivered[seq] = true
}

// generate emits one report from the source and schedules the delivery
// verdict after a generous multi-hop deadline (the cumulative ratio is
// observed then, so in-flight reports are not counted as lost).
func (h *Harness) generate() {
	h.generated++
	seq := h.seq
	h.seq++
	// The source stamps an effectively infinite cost so any working
	// neighbor with a finite cost forwards.
	h.injectAt(h.cfg.Source, Report{Seq: seq, Cost: math.MaxInt32})
	deadline := h.cfg.Period / 2
	h.net.Engine.Schedule(deadline, func() {
		h.ratio.Observe(h.net.Engine.Now(), h.delivered[seq])
	})
}

// Ratio exposes the cumulative delivery recorder.
func (h *Harness) Ratio() *metrics.Ratio { return h.ratio }
