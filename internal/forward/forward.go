// Package forward provides the data-delivery substrate of the evaluation.
// The paper delivers source reports to a sink with GRAB [11], a cost-field
// (gradient) forwarding protocol running over the working nodes. This
// package reproduces GRAB's role in the evaluation:
//
//   - what is maintained between reports is the current working set as
//     one bitset (router), updated one node at a time from the network's
//     WorkingChange hook — the stand-in for GRAB's ADV flood, which
//     the sink re-issues when topology changes — beside each node's
//     reach mask, worked out once because nodes never move;
//   - the route itself is a breadth-first search over those masks, redone
//     only for a report that follows a working-set change; any other
//     report reuses the previous route;
//   - a report generated at the source is delivered iff a relay path of
//     working nodes exists from source to sink with per-hop range Rt
//     (GRAB's forwarding mesh follows decreasing cost, so delivery
//     succeeds exactly when the gradient is connected);
//   - nodes on the delivery path are charged transmit/receive energy for
//     the report.
//
// The search is rooted at the source, not at the sink as GRAB's cost
// field is: among equal-length paths the two pick different relays, and
// which relays are charged is part of every run's state hash.
//
// The cumulative success ratio and the 90% data-delivery lifetime match
// the paper's definitions (§5.2).
package forward

import (
	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/sim"
	"peas/internal/stats"
)

// Config parameterizes the source/sink workload.
type Config struct {
	// Source and Sink positions; the paper places them "in opposite
	// corners of the field".
	Source geom.Point
	Sink   geom.Point
	// Period between report generations (paper: 10 s).
	Period float64
	// ReportSize in bytes for energy accounting of relayed reports.
	ReportSize int
	// HopRange is the per-hop radio range for data traffic (paper: the
	// maximum transmitting range, 10 m).
	HopRange float64
	// MeshWidth is GRAB's credit-controlled mesh width: the number of
	// node-disjoint paths a report travels. 0 or 1 selects single-path
	// forwarding.
	MeshWidth int
	// HopLossRate is an i.i.d. per-hop data-frame loss probability; a
	// report is delivered if at least one mesh path survives end to end.
	HopLossRate float64
}

// DefaultConfig returns the paper's workload over the given field: source
// and sink in opposite corners, one 64-byte report every 10 seconds,
// 10-meter hops.
func DefaultConfig(field geom.Field) Config {
	return Config{
		Source:     geom.Point{X: 1, Y: 1},
		Sink:       geom.Point{X: field.Width - 1, Y: field.Height - 1},
		Period:     10,
		ReportSize: 64,
		HopRange:   10,
		MeshWidth:  1,
	}
}

// Harness drives the source/sink workload on a network.
type Harness struct {
	cfg    Config
	net    *node.Network
	ratio  *metrics.Ratio
	hops   *metrics.Series
	rng    stats.RNG
	ticker *sim.Ticker

	// txExtra and rxExtra are what relaying one report costs a node over
	// its idle draw.
	txExtra, rxExtra float64

	// router mirrors the network's working set; found is its answer for
	// the set as of the last report, and stale says the set has changed
	// since. transitions and rebuilds count the two for RunStats.
	router      *router
	found       [][]int32
	stale       bool
	transitions int
	rebuilds    int
	onWorking   func(core.NodeID, bool) // the working-transition hook
}

// NewHarness attaches the workload to net, subscribing to the network's
// working-transition hook. Call Start before running the simulation.
func NewHarness(cfg Config, net *node.Network) *Harness {
	h := new(Harness)
	h.Reset(cfg, net)
	return h
}

// Reset attaches h to net as NewHarness would, in the storage h grew
// before: the recorders' series, the router's reach table and search
// buffers. Nothing of the network h was attached to before stays.
func (h *Harness) Reset(cfg Config, net *node.Network) {
	if cfg.MeshWidth < 1 {
		cfg.MeshWidth = 1
	}
	netCfg := net.Config()
	airtime := float64(cfg.ReportSize) * 8 / netCfg.Radio.BitsPerSecond
	ratio, hops, r, onWorking := h.ratio, h.hops, h.router, h.onWorking
	if r == nil {
		ratio, hops, r = metrics.NewRatio("data-success-ratio"), metrics.NewSeries("delivery-hops"), new(router)
		onWorking = func(id core.NodeID, working bool) {
			h.router.set(int(id), working)
			h.stale = true
			h.transitions++
		}
	}
	ratio.Reset()
	hops.Reset()
	r.reset(net.Field, net.Index.Points(), cfg.Source, cfg.Sink, cfg.HopRange)
	*h = Harness{
		cfg:       cfg,
		net:       net,
		ratio:     ratio,
		hops:      hops,
		txExtra:   (netCfg.Energy.TransmitW - netCfg.Energy.IdleW) * airtime,
		rxExtra:   (netCfg.Energy.ReceiveW - netCfg.Energy.IdleW) * airtime,
		router:    r,
		found:     h.found[:0],
		onWorking: onWorking,
	}
	h.rng.Seed(netCfg.Seed ^ 0x9e3779b9)
	h.syncRouter()
	net.Observe(node.Observer{WorkingChange: onWorking})
}

// syncRouter loads the network's current working set into the router, for
// the two moments the hook does not cover: attaching to a network that is
// already running, and a checkpoint restore.
func (h *Harness) syncRouter() {
	h.router.rebuild(func(id int) bool { return h.net.Nodes[id].Working() })
	h.stale = true
}

// Start schedules periodic report generation.
func (h *Harness) Start() {
	h.ticker = h.net.Engine.NewTicker(h.cfg.Period, h.generate)
}

// HarnessState is the serializable state of the workload: the delivery
// recorders, the per-hop loss RNG stream, and the phase of the report
// generator.
type HarnessState struct {
	Generated   int
	Succeeded   int
	RatioPoints []metrics.Point
	HopsPoints  []metrics.Point
	RNG         stats.RNGState
	// NextGenAt is the absolute time of the next report generation
	// (sim.Forever when the generator is stopped).
	NextGenAt float64
}

// Snapshot captures the harness state without mutating it.
func (h *Harness) Snapshot() HarnessState {
	gen, succ := h.ratio.Counts()
	st := HarnessState{
		Generated:   gen,
		Succeeded:   succ,
		RatioPoints: h.ratio.Series().Points(),
		HopsPoints:  h.hops.Points(),
		RNG:         h.rng.State(),
		NextGenAt:   sim.Forever,
	}
	if h.ticker != nil {
		st.NextGenAt = h.ticker.NextAt()
	}
	return st
}

// Resume overwrites the harness with a captured state and re-arms the
// report generator at its exact recorded phase. Call it instead of Start
// when restoring a checkpoint, after the network's nodes are restored:
// restores bypass the working-transition hook, so the router is reloaded
// from the restored working set here.
func (h *Harness) Resume(st HarnessState) {
	h.syncRouter()
	h.ratio.Restore(st.Generated, st.Succeeded, st.RatioPoints)
	h.hops.Restore(st.HopsPoints)
	h.rng.Restore(st.RNG)
	if st.NextGenAt < sim.Forever {
		h.ticker = h.net.Engine.NewTickerAt(st.NextGenAt, h.cfg.Period, h.generate)
	}
}

// generate creates one report and attempts delivery through the current
// working set.
func (h *Harness) generate() {
	now := h.net.Engine.Now()
	paths := h.route()
	// The report is delivered if any mesh path survives the per-hop
	// losses; energy is spent on every attempted path either way, and
	// every path draws its losses whether or not an earlier one survived.
	// hops is the length of the first path that got through.
	hops := 0
	for _, path := range paths {
		if pathSurvives(len(path)+1, h.cfg.HopLossRate, &h.rng) && hops == 0 {
			hops = len(path) + 1
		}
		h.chargePath(path)
	}
	h.ratio.Observe(now, hops > 0)
	if hops > 0 {
		h.hops.Record(now, float64(hops))
	}
}

// route returns the mesh paths for the current working set as node ids,
// searching only if the set changed since the last report. Charging a
// relay can kill it, which marks the route stale for the next report but
// leaves this one's paths intact.
func (h *Harness) route() [][]int32 {
	if h.stale {
		h.found = h.router.paths(h.cfg.MeshWidth)
		h.stale = false
		h.rebuilds++
	}
	return h.found
}

// chargePath debits each relay for one report transmission and reception
// at the node's radio rates, on top of its idle draw.
func (h *Harness) chargePath(path []int32) {
	for _, id := range path {
		h.net.ChargeExtra(core.NodeID(id), energy.DataTransmit, h.txExtra)
		h.net.ChargeExtra(core.NodeID(id), energy.DataReceive, h.rxExtra)
	}
}

// WorkingTransitions is how many times a node joined or left the working
// set since this harness was attached.
func (h *Harness) WorkingTransitions() int { return h.transitions }

// RouteRebuilds is how many reports searched for a route because the
// working set had changed since the previous report; the remaining
// reports reused the previous route.
func (h *Harness) RouteRebuilds() int { return h.rebuilds }

// Ratio exposes the cumulative success-ratio recorder.
func (h *Harness) Ratio() *metrics.Ratio { return h.ratio }

// DeliveryLifetime returns the data-delivery lifetime: the time at which
// the cumulative success ratio first drops below threshold (paper: 90%).
// ok is false when the ratio never dropped during the run.
func (h *Harness) DeliveryLifetime(threshold float64) (lifetime float64, ok bool) {
	return h.ratio.Series().FirstBelow(threshold, 1)
}
