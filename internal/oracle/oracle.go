// Package oracle is a runtime invariant checker for the PEAS simulator.
// A Checker attaches read-only observers to a deployed network — the
// event engine, the radio medium, and the per-node receivers — and
// continuously verifies properties the model must never violate:
//
//   - clock/timer monotonicity: every executed event carries a finite
//     timestamp no earlier than the previous one;
//   - transmit discipline: only alive, non-sleeping nodes put frames on
//     the air (paper §2.1: a sleeping node's radio is off);
//   - receive discipline: frames are only delivered to alive, listening
//     nodes, and the medium's power flag for each radio agrees with the
//     node's Listening();
//   - energy conservation: each battery's ledger balances — initial
//     charge equals remaining charge plus the per-mode consumption sums
//     — remaining charge never increases, consumption never decreases,
//     and an exhausted battery implies a dead node;
//   - lifecycle consistency: a node is alive exactly while its protocol
//     state is not Dead, and its battery power mode matches its state;
//   - working-overlap resolution (§4): two working nodes within Rp of
//     each other are redundant; once the elder of the pair has
//     broadcast enough REPLYs for the younger to have heard one, the
//     turn-off extension must have resolved the pair.
//
// The observers never mutate model state, consume no model randomness,
// and only add read-only events to the schedule, so an instrumented run
// follows the exact trajectory of an uninstrumented one — attaching the
// oracle does not perturb what it measures (the golden determinism test
// of internal/experiment holds with and without it).
package oracle

import (
	"fmt"
	"math"

	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/node"
	"peas/internal/radio"
	"peas/internal/sim"
)

// Violation is one observed invariant breach.
type Violation struct {
	// T is the simulation time of the observation.
	T float64
	// Invariant names the broken property (e.g. "energy-ledger").
	Invariant string
	// Node is the offending node, or -1 when the breach is not
	// node-specific.
	Node core.NodeID
	// Detail is a human-readable description with the observed values.
	Detail string
}

// String formats the violation for logs.
func (v Violation) String() string {
	if v.Node < 0 {
		return fmt.Sprintf("t=%.3f [%s] %s", v.T, v.Invariant, v.Detail)
	}
	return fmt.Sprintf("t=%.3f [%s] node %d: %s", v.T, v.Invariant, v.Node, v.Detail)
}

// Config tunes the checker.
type Config struct {
	// Interval is the period of the read-only scan that checks energy
	// ledgers, lifecycle consistency and working overlap. Zero selects
	// 10 s.
	Interval float64
	// EnergyTolerance is the relative tolerance of the battery ledger
	// identity, scaled by the initial charge. Zero selects 1e-9.
	EnergyTolerance float64
	// OverlapGrace is how long a redundant working pair must persist
	// before it can be flagged. Zero selects 200 s.
	OverlapGrace float64
	// OverlapReplies is how many REPLY broadcasts by the pair's elder
	// must fail to resolve the pair before it is flagged; each broadcast
	// reaches the younger node unless a collision eats it, so several
	// unresolved ones indicate a turn-off bug rather than channel noise.
	// Zero selects 8.
	OverlapReplies int
	// MaxViolations caps recording; further breaches only bump the
	// dropped counter. Zero selects 100.
	MaxViolations int
}

// DefaultConfig returns the standard checker tuning.
func DefaultConfig() Config {
	return Config{
		Interval:        10,
		EnergyTolerance: 1e-9,
		OverlapGrace:    200,
		OverlapReplies:  8,
		MaxViolations:   100,
	}
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 10
	}
	if c.EnergyTolerance <= 0 {
		c.EnergyTolerance = 1e-9
	}
	if c.OverlapGrace <= 0 {
		c.OverlapGrace = 200
	}
	if c.OverlapReplies <= 0 {
		c.OverlapReplies = 8
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 100
	}
}

// pairState tracks one observed redundant working pair.
type pairState struct {
	since        float64     // when the overlap was first observed
	elder        core.NodeID // the longer-working node of the pair
	elderReplies int         // elder REPLY broadcasts while the pair persisted
	flagged      bool
}

// Checker holds the observer state for one network.
type Checker struct {
	cfg Config
	net *node.Network
	rp  float64

	violations []Violation
	dropped    int

	// Clock monotonicity.
	lastEventT float64

	// Energy ledgers: previous scan's per-node remaining charge and
	// total consumption, and how many consecutive scans a battery has
	// been dead with its node still alive (one scan of slack absorbs
	// the instant where lazy settling marks the battery dead before the
	// depletion event fires).
	lastRemaining []float64
	lastConsumed  []float64
	deadScans     []int

	// Working overlap, keyed by (low ID, high ID). Disabled when the
	// §4 turn-off extension is off (redundant pairs are then expected)
	// or when channel loss, signal irregularity, or an attached fault
	// injector can legitimately keep the elder's REPLYs from the younger
	// node.
	pairs        map[[2]core.NodeID]*pairState
	overlapAlive bool
}

// Attach builds a checker for net and wires its observers. Call before
// net.Start (or, on a resumed run, right after the restore) so no event
// escapes observation. The experiment runner's OnNetwork hook is the
// natural attachment point.
func Attach(net *node.Network, cfg Config) *Checker {
	cfg.fill()
	ncfg := net.Config()
	c := &Checker{
		cfg:           cfg,
		net:           net,
		rp:            ncfg.Protocol.ProbingRange,
		lastEventT:    net.Engine.Now(),
		lastRemaining: make([]float64, len(net.Nodes)),
		lastConsumed:  make([]float64, len(net.Nodes)),
		deadScans:     make([]int, len(net.Nodes)),
		pairs:         make(map[[2]core.NodeID]*pairState),
		overlapAlive: ncfg.Protocol.TurnoffEnabled &&
			ncfg.Radio.LossRate == 0 && ncfg.Radio.Irregularity == 0 &&
			net.Medium.Faults() == nil,
	}
	for i, n := range net.Nodes {
		st := n.Battery().Snapshot()
		c.lastRemaining[i] = st.Remaining
		c.lastConsumed[i] = consumedTotal(st)
	}

	prevEvent := net.Engine.OnEvent
	net.Engine.OnEvent = func(t sim.Time) {
		if prevEvent != nil {
			prevEvent(t)
		}
		c.observeEvent(t)
	}
	prevTx := net.Medium.OnTransmit
	net.Medium.OnTransmit = func(pkt radio.Packet) {
		if prevTx != nil {
			prevTx(pkt)
		}
		c.observeTransmit(pkt)
	}
	for i, n := range net.Nodes {
		net.Medium.Attach(radio.NodeID(i), &checkedReceiver{n: n, c: c})
	}
	net.Engine.NewTicker(cfg.Interval, c.scan)
	return c
}

// Violations returns the recorded breaches in observation order.
func (c *Checker) Violations() []Violation { return c.violations }

// Dropped returns how many breaches exceeded the recording cap.
func (c *Checker) Dropped() int { return c.dropped }

// Err returns nil when no invariant was violated, else an error
// summarizing the first breach and the total count.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %d invariant violation(s), first: %s",
		len(c.violations)+c.dropped, c.violations[0])
}

func (c *Checker) report(inv string, id core.NodeID, format string, args ...any) {
	if len(c.violations) >= c.cfg.MaxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		T:         c.net.Engine.Now(),
		Invariant: inv,
		Node:      id,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// observeEvent checks clock monotonicity on every executed event.
func (c *Checker) observeEvent(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		c.report("timer-monotonic", -1, "event timestamp %v is not finite", t)
		return
	}
	if t < c.lastEventT {
		c.report("timer-monotonic", -1,
			"event at %v executed after event at %v", t, c.lastEventT)
		return
	}
	c.lastEventT = t
}

// observeTransmit checks transmit discipline the instant a frame goes on
// the air, and counts overlap-resolution opportunities (elder REPLYs).
func (c *Checker) observeTransmit(pkt radio.Packet) {
	id := core.NodeID(pkt.From)
	if int(id) < 0 || int(id) >= len(c.net.Nodes) {
		c.report("tx-discipline", id, "transmission from unknown node")
		return
	}
	n := c.net.Nodes[id]
	if !n.Alive() {
		c.report("tx-discipline", id, "dead node transmitted a %d-byte frame", pkt.Size)
		return
	}
	if n.State() == core.Sleeping {
		c.report("tx-discipline", id, "sleeping node transmitted a %d-byte frame", pkt.Size)
		return
	}
	switch pkt.Payload.(type) {
	case core.Reply, *core.Reply:
		for key, p := range c.pairs {
			if p.elder != id {
				continue
			}
			if key[0] != id && key[1] != id {
				continue
			}
			other := key[0]
			if other == id {
				other = key[1]
			}
			if c.net.Nodes[id].Working() && c.net.Nodes[other].Working() {
				p.elderReplies++
			}
		}
	}
}

// checkDeliver verifies receive discipline right before a frame is handed
// to the protocol layer.
func (c *Checker) checkDeliver(n *node.Node, pkt radio.Packet) {
	if !n.Alive() {
		c.report("rx-discipline", n.ID(), "frame from node %d delivered to a dead node", pkt.From)
		return
	}
	if n.State() == core.Sleeping {
		c.report("rx-discipline", n.ID(), "frame from node %d delivered to a sleeping node", pkt.From)
	}
}

// checkedReceiver interposes the oracle between the medium and a node.
type checkedReceiver struct {
	n *node.Node
	c *Checker
}

var _ radio.Receiver = (*checkedReceiver)(nil)

func (r *checkedReceiver) Listening() bool { return r.n.Listening() }

func (r *checkedReceiver) Deliver(pkt radio.Packet, dist float64) {
	r.c.checkDeliver(r.n, pkt)
	r.n.Deliver(pkt, dist)
}

// scan runs the periodic read-only checks. It uses only non-settling
// battery snapshots: settling would split pending drain into different
// floating-point roundings and nudge the model off its trajectory.
func (c *Checker) scan() {
	now := c.net.Engine.Now()
	tol := c.cfg.EnergyTolerance
	for i, n := range c.net.Nodes {
		st := n.Battery().Snapshot()
		total := consumedTotal(st)

		// Ledger identity: initial == remaining + per-mode sums, up to
		// accumulated rounding proportional to the charge.
		scale := st.Initial
		if scale < 1 {
			scale = 1
		}
		if diff := st.Initial - st.Remaining - total; math.Abs(diff) > tol*scale {
			c.report("energy-ledger", n.ID(),
				"initial %.9g J != remaining %.9g J + consumed %.9g J (off by %.3g J)",
				st.Initial, st.Remaining, total, diff)
		}
		if st.Remaining < 0 {
			c.report("energy-ledger", n.ID(), "remaining charge is negative: %.9g J", st.Remaining)
		}
		if st.Remaining > c.lastRemaining[i]+tol*scale {
			c.report("energy-monotone", n.ID(),
				"remaining charge rose from %.9g J to %.9g J", c.lastRemaining[i], st.Remaining)
		}
		if total < c.lastConsumed[i]-tol*scale {
			c.report("energy-monotone", n.ID(),
				"consumption fell from %.9g J to %.9g J", c.lastConsumed[i], total)
		}
		c.lastRemaining[i] = st.Remaining
		c.lastConsumed[i] = total

		// An exhausted battery must kill the node. Lazy settling can mark
		// the battery dead at the exact instant the depletion event is due
		// but not yet executed, so one full scan interval of slack is
		// allowed before flagging.
		if st.Dead && n.Alive() {
			c.deadScans[i]++
			if c.deadScans[i] >= 2 {
				c.report("lifecycle", n.ID(), "battery dead but node still alive after %.0f s",
					float64(c.deadScans[i]-1)*c.cfg.Interval)
			}
		} else {
			c.deadScans[i] = 0
		}

		// Protocol state, liveness flag and battery mode must agree.
		state := n.State()
		if n.Alive() == (state == core.Dead) {
			c.report("lifecycle", n.ID(), "alive=%v but protocol state is %v", n.Alive(), state)
		}
		if n.Alive() {
			wantSleep := state == core.Sleeping
			isSleep := st.Mode == energy.Sleep
			if wantSleep != isSleep {
				c.report("lifecycle", n.ID(), "state %v but battery mode %v", state, st.Mode)
			}
		}

		// The medium sweeps receivers by its own copy of each power flag.
		// A stale copy that delivers to a sleeping radio is caught by
		// checkDeliver; one that skips a listening radio is caught only
		// here.
		if flag, want := c.net.Medium.Listening(radio.NodeID(i)), n.Listening(); flag != want {
			c.report("rx-discipline", n.ID(), "medium's power flag is %v but Listening() is %v", flag, want)
		}
	}
	c.scanOverlap(now)
}

// scanOverlap maintains the redundant-pair table and flags pairs the §4
// turn-off extension failed to resolve despite enough elder REPLYs.
func (c *Checker) scanOverlap(now float64) {
	if !c.overlapAlive {
		return
	}
	// Collect the working set once; deployments keep it small (§5: ~25
	// workers for 160 deployed), so the pair scan is cheap.
	working := working(c.net)
	current := make(map[[2]core.NodeID]bool, len(c.pairs))
	for i := 0; i < len(working); i++ {
		for j := i + 1; j < len(working); j++ {
			a, b := working[i], working[j]
			if a.Pos().Dist(b.Pos()) > c.rp {
				continue
			}
			wa, wb := a.Protocol().TimeWorking(), b.Protocol().TimeWorking()
			if wa == wb {
				// A perfectly tied pair cannot be resolved: §4 only lets a
				// strictly longer-working node turn off a younger one.
				continue
			}
			key := pairKey(a.ID(), b.ID())
			current[key] = true
			p := c.pairs[key]
			if p == nil {
				p = &pairState{since: now, elder: a.ID()}
				if wb > wa {
					p.elder = b.ID()
				}
				c.pairs[key] = p
			}
			if !p.flagged && now-p.since >= c.cfg.OverlapGrace &&
				p.elderReplies >= c.cfg.OverlapReplies {
				p.flagged = true
				younger := key[0]
				if younger == p.elder {
					younger = key[1]
				}
				c.report("working-overlap", younger,
					"working within Rp=%.1f m of working node %d for %.0f s; %d elder REPLYs failed to turn it off",
					c.rp, p.elder, now-p.since, p.elderReplies)
			}
		}
	}
	for key := range c.pairs {
		if !current[key] {
			delete(c.pairs, key)
		}
	}
}

func working(net *node.Network) []*node.Node {
	out := make([]*node.Node, 0, len(net.Nodes)/4)
	for _, n := range net.Nodes {
		if n.Working() {
			out = append(out, n)
		}
	}
	return out
}

func pairKey(a, b core.NodeID) [2]core.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]core.NodeID{a, b}
}

func consumedTotal(st energy.BatteryState) float64 {
	var total float64
	for _, v := range st.ConsumedByMode {
		total += v
	}
	return total
}
