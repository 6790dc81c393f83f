package node

import (
	"fmt"
	"math"

	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/radio"
	"peas/internal/sim"
	"peas/internal/stats"
)

// Config describes one simulated sensor network.
type Config struct {
	// Field is the deployment area (paper: 50 x 50 m²).
	Field geom.Field
	// N is the number of deployed nodes.
	N int
	// Protocol holds the PEAS parameters applied to every node.
	Protocol core.Config
	// Radio holds the physical-layer parameters.
	Radio radio.Config
	// Energy is the power profile (paper: Berkeley-Motes-like).
	Energy energy.Profile
	// InitialEnergyMin/Max bound the uniform initial charge in joules
	// (paper: 54-60 J "to simulate the variance of battery lifetime").
	InitialEnergyMin float64
	InitialEnergyMax float64
	// Seed determines every random choice in the run.
	Seed int64
	// Positions, when non-nil, overrides uniform deployment (len == N).
	Positions []geom.Point
	// NodeSeeds, when non-nil, pins each node's private RNG seed
	// (len == N). Together with Positions this makes per-node randomness
	// a property of the physical node rather than of its index, so a
	// deployment can be relabeled (IDs permuted) without changing any
	// node's behavior — the lever the metamorphic relabeling tests use.
	NodeSeeds []int64
}

// DefaultConfig returns the paper's evaluation setup (§5.1-5.2) for n
// deployed nodes.
func DefaultConfig(n int, seed int64) Config {
	return Config{
		Field:            geom.NewField(50, 50),
		N:                n,
		Protocol:         core.DefaultConfig(),
		Radio:            radio.DefaultConfig(),
		Energy:           energy.MotesProfile(),
		InitialEnergyMin: 54,
		InitialEnergyMax: 60,
		Seed:             seed,
	}
}

// Network is a deployed sensor network bound to a simulation engine.
// Rebuild deploys a new network into the storage of an existing one.
type Network struct {
	Engine *sim.Engine
	Field  geom.Field
	Index  *geom.Index
	Medium *radio.Medium
	Nodes  []*Node

	cfg Config

	// spareReplies are the REPLY records the medium has handed back
	// through recycleReply. Every node's REPLY goes out in one of them, so
	// the pool is as large as the most REPLYs ever in flight at once. A
	// medium Reset hands back the ones still in flight.
	spareReplies []*core.Reply
	recycleReply func(any)

	// observers are the subscribed hook sets, in subscription order.
	// deliverers counts those with a Deliver hook, so a frame delivery,
	// the most frequent event, costs one check when nobody listens.
	observers  []Observer
	deliverers int

	// The storage behind Engine, Index, Medium and Nodes, rebuilt in place
	// by every Rebuild: the nodes in ID order, each holding its protocol,
	// battery, RNG and depletion timer by value.
	engine    sim.Engine
	index     geom.Index
	medium    radio.Medium
	radioRNG  stats.RNG
	sink      energyAdapter
	nodes     []Node
	positions []geom.Point // deployment scratch
}

// Observer is a set of optional hooks on a network's node events, used by
// the metrics, coverage, forwarding and trace layers. A nil hook is
// skipped. Subscribe with Network.Observe.
type Observer struct {
	// State fires on every protocol mode change.
	State func(id core.NodeID, s core.State)
	// Death fires when a node dies, with the cause.
	Death func(id core.NodeID, cause DeathCause)
	// Revive fires when a transiently failed node comes back via Revive or
	// ReviveFrom.
	Revive func(id core.NodeID)
	// Deliver fires after the protocol has handled a received frame.
	Deliver func(id core.NodeID, pkt radio.Packet, dist float64)
	// WorkingChange fires exactly when a node's Working() status flips —
	// on entering Working, and on leaving it for any reason (sleep, probe,
	// death, crash). Every live path funnels through Node.SetState, so the
	// hook sees each transition once; checkpoint restores bypass it (the
	// resume path rebuilds derived state from the restored working set).
	// The incremental coverage engine subscribes here to keep per-sample
	// work proportional to working-set churn.
	WorkingChange func(id core.NodeID, working bool)
}

// Observe subscribes o to the network's node events. Hooks of one kind
// run in subscription order. Subscribe before Start, or before restoring a
// snapshot.
func (net *Network) Observe(o Observer) {
	net.observers = append(net.observers, o)
	if o.Deliver != nil {
		net.deliverers++
	}
}

// energyAdapter charges packet airtime to node batteries. The extra
// charge over the node's continuous mode draw is used, so the lazily
// settled mode drain plus packet charges conserve energy exactly.
type energyAdapter struct{ net *Network }

var _ radio.EnergySink = (*energyAdapter)(nil)

func (a *energyAdapter) SpendTx(id radio.NodeID, seconds float64) {
	a.spend(id, seconds, a.net.cfg.Energy.TransmitW, energy.Transmit)
}

func (a *energyAdapter) SpendRx(id radio.NodeID, seconds float64) {
	a.spend(id, seconds, a.net.cfg.Energy.ReceiveW, energy.Receive)
}

// spend charges seconds of airtime at watts, less the mode draw the battery
// settles anyway, to the ledger row of mode. The mode is the caller's: a
// profile may draw the same power to transmit and to receive.
func (a *energyAdapter) spend(id radio.NodeID, seconds, watts float64, mode energy.Mode) {
	n := a.net.Nodes[id]
	if !n.alive {
		return
	}
	extra := (watts - a.net.cfg.Energy.Power(n.battery.Mode())) * seconds
	if extra <= 0 {
		return
	}
	n.charge(mode, extra)
}

// Validate reports whether cfg describes a network NewNetwork can build,
// naming the first field that does not. It checks every section, so a
// partly filled one (a radio with only LossRate set, say) is refused
// rather than run with zeros in the fields left out. Only the sleep draw
// may be zero: a radio that transmits, receives or idles for free is a
// section left unfilled. Validate does not modify cfg.
func (cfg Config) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("node: network size N=%d must be positive", cfg.N)
	}
	if err := cfg.Protocol.Validate(); err != nil {
		return fmt.Errorf("node: Protocol: %w", err)
	}
	// v <= MaxFloat64 is false for +Inf and NaN.
	positive := func(v float64) bool { return v > 0 && v <= math.MaxFloat64 }
	nonNegative := func(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
	fraction := func(v float64) bool { return v >= 0 && v < 1 }
	r, e := cfg.Radio, cfg.Energy
	for _, f := range []struct {
		name string
		v    float64
		ok   func(float64) bool
		want string
	}{
		{"Field.Width", cfg.Field.Width, positive, "positive and finite"},
		{"Field.Height", cfg.Field.Height, positive, "positive and finite"},
		{"Radio.BitsPerSecond", r.BitsPerSecond, positive, "positive and finite"},
		{"Radio.MaxRange", r.MaxRange, positive, "positive and finite"},
		{"Radio.LossRate", r.LossRate, fraction, "in [0, 1)"},
		{"Radio.Irregularity", r.Irregularity, fraction, "in [0, 1)"},
		{"Radio.CSMABackoffMax", r.CSMABackoffMax, nonNegative, "non-negative and finite"},
		{"Energy.TransmitW", e.TransmitW, positive, "positive and finite"},
		{"Energy.ReceiveW", e.ReceiveW, positive, "positive and finite"},
		{"Energy.IdleW", e.IdleW, positive, "positive and finite"},
		{"Energy.SleepW", e.SleepW, nonNegative, "non-negative and finite"},
		{"InitialEnergyMin", cfg.InitialEnergyMin, positive, "positive and finite"},
		{"InitialEnergyMax", cfg.InitialEnergyMax, positive, "positive and finite"},
	} {
		if !f.ok(f.v) {
			return fmt.Errorf("node: %s = %v, must be %s", f.name, f.v, f.want)
		}
	}
	if cfg.InitialEnergyMax < cfg.InitialEnergyMin {
		return fmt.Errorf("node: InitialEnergyMax %v is below InitialEnergyMin %v", cfg.InitialEnergyMax, cfg.InitialEnergyMin)
	}
	if cfg.Positions != nil && len(cfg.Positions) != cfg.N {
		return fmt.Errorf("node: %d Positions for N=%d nodes", len(cfg.Positions), cfg.N)
	}
	if cfg.NodeSeeds != nil && len(cfg.NodeSeeds) != cfg.N {
		return fmt.Errorf("node: %d NodeSeeds for N=%d nodes", len(cfg.NodeSeeds), cfg.N)
	}
	return nil
}

// NewNetwork deploys a network according to cfg into fresh storage. The
// nodes are created but idle; call Start to boot the protocol on every
// node.
func NewNetwork(cfg Config) (*Network, error) {
	net := new(Network)
	if err := net.Rebuild(cfg); err != nil {
		return nil, err
	}
	return net, nil
}

// Rebuild deploys cfg into net's storage, as NewNetwork does into fresh
// storage: nothing of the network it held is visible in the new one. A
// pointer taken from the old network (to its engine, medium, index or a
// node) must not be kept across the call. An invalid cfg leaves net as it
// was. Every part of the storage is replaced but the record pools, which
// hold no state of a run once the engine and the medium are reset: the
// engine's event records, the medium's frame, delivery and retry
// records, the protocols' timer records and the REPLY records.
func (net *Network) Rebuild(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	root := stats.NewRNG(cfg.Seed)
	deployRNG := root.Split()
	energyRNG := root.Split()
	net.radioRNG = *root.Split()
	nodeSeedRNG := root.Split()

	positions := cfg.Positions
	if positions == nil {
		net.positions = geom.AppendUniformDeploy(net.positions[:0], cfg.Field, cfg.N, deployRNG)
		positions = net.positions
	}

	if net.recycleReply == nil {
		net.recycleReply = func(a any) { net.spareReplies = append(net.spareReplies, a.(*core.Reply)) }
	}
	net.engine.Reset()
	// Bucket size near Rp keeps probe-range queries cheap while still
	// serving the 10 m data-forwarding queries.
	net.index.Reset(cfg.Field, positions, cfg.Protocol.ProbingRange)
	net.sink = energyAdapter{net: net}
	// The medium hands the REPLY records still in flight to recycleReply.
	net.medium.Reset(cfg.Radio, &net.engine, &net.index, &net.radioRNG, &net.sink)
	net.Engine, net.Index, net.Medium = &net.engine, &net.index, &net.medium
	net.Field = cfg.Field
	net.cfg = cfg
	// Room for a run's usual subscribers (coverage, forwarding, liveness
	// and a trace recorder) without regrowing.
	net.observers, net.deliverers = geom.Zeroed(net.observers, 4)[:0], 0

	if cap(net.nodes) < cfg.N {
		net.nodes = make([]Node, cfg.N)
		net.Nodes = make([]*Node, cfg.N)
	}
	net.nodes, net.Nodes = net.nodes[:cfg.N], net.Nodes[:cfg.N]
	for i := range net.nodes {
		charge := energyRNG.Uniform(cfg.InitialEnergyMin, cfg.InitialEnergyMax)
		// The derived seed stream is always drawn so explicit NodeSeeds
		// leave every other RNG stream's draw order untouched.
		seed := nodeSeedRNG.Int63()
		if cfg.NodeSeeds != nil {
			seed = cfg.NodeSeeds[i]
		}
		n := &net.nodes[i]
		*n = Node{
			id:      core.NodeID(i),
			pos:     positions[i],
			network: net,
			battery: *energy.NewBattery(cfg.Energy, charge),
			proto:   n.proto, // reset below, in place: its timers point at it
		}
		n.rng.Seed(seed)
		net.engine.InitTimer(&n.death, depleted, n)
		n.proto.Reset(core.NodeID(i), cfg.Protocol, n)
		net.Nodes[i] = n
		net.medium.Attach(radio.NodeID(i), n)
	}
	return nil
}

// Release drops every hook and pending event, and the configuration, so
// the network's storage, kept for a later Rebuild, holds nothing of the
// caller's. The network must not be run again until it is rebuilt.
func (net *Network) Release() {
	net.engine.Reset()
	net.medium.OnTransmit = nil
	net.medium.SetFaultInjector(nil)
	clear(net.observers)
	net.observers, net.deliverers = net.observers[:0], 0
	net.cfg = Config{}
}

// Config returns the configuration the network was built with.
func (net *Network) Config() Config { return net.cfg }

// Start boots every node at the current simulation time.
func (net *Network) Start() {
	for _, n := range net.Nodes {
		n.start()
	}
}

// Run advances the simulation to the given time.
func (net *Network) Run(until sim.Time) { net.Engine.Run(until) }

// AliveCount returns the number of alive nodes.
func (net *Network) AliveCount() int {
	c := 0
	for _, n := range net.Nodes {
		if n.alive {
			c++
		}
	}
	return c
}

// WorkingCount returns the number of alive working nodes.
func (net *Network) WorkingCount() int {
	c := 0
	for _, n := range net.Nodes {
		if n.Working() {
			c++
		}
	}
	return c
}

// WorkingPositions returns the positions of all alive working nodes in a
// fresh slice. Callers that sample repeatedly should reuse a buffer via
// AppendWorkingPositions instead.
func (net *Network) WorkingPositions() []geom.Point {
	return net.AppendWorkingPositions(make([]geom.Point, 0, len(net.Nodes)/4))
}

// AppendWorkingPositions appends the positions of all alive working nodes
// to pts and returns the extended slice. Periodic samplers pass the same
// buffer re-sliced to pts[:0] each tick, keeping the scan allocation-free
// once the buffer has grown to the working-set high-water mark. Every
// in-repo consumer (connectivity analysis, sensing trackers, coverage
// estimators) uses the positions transiently, so sharing one buffer
// across sequential evaluations is safe.
func (net *Network) AppendWorkingPositions(pts []geom.Point) []geom.Point {
	for _, n := range net.Nodes {
		if n.Working() {
			pts = append(pts, n.pos)
		}
	}
	return pts
}

// TotalWakeups sums the probe rounds of all nodes, the Figure 11/14
// overhead metric.
func (net *Network) TotalWakeups() uint64 {
	var total uint64
	for _, n := range net.Nodes {
		total += n.proto.Stats().Wakeups
	}
	return total
}

// TotalConsumed returns the joules consumed so far across all nodes.
func (net *Network) TotalConsumed() float64 {
	now := net.Engine.Now()
	var total float64
	for _, n := range net.Nodes {
		total += n.battery.Consumed(now)
	}
	return total
}

// ProtocolEnergy returns the joules attributable to PEAS operations:
// packet transmit/receive charges plus idle listening during probe
// windows. This is the "energy overhead" of Table 1.
func (net *Network) ProtocolEnergy() float64 {
	now := net.Engine.Now()
	var total float64
	for _, n := range net.Nodes {
		total += n.battery.ConsumedIn(now, energy.Transmit)
		total += n.battery.ConsumedIn(now, energy.Receive)
		// Idle drain during Probing windows: settled mode drain is
		// recorded under Idle for both probing and working; attribute
		// probe-window idle time via the protocol's accumulator.
		total += n.proto.Stats().TimeProbing * net.cfg.Energy.IdleW
	}
	return total
}

// ChargeExtra debits an instantaneous energy amount from node id,
// attributed to mode, keeping the depletion deadline consistent. The
// forwarding substrate uses it for relayed data reports.
func (net *Network) ChargeExtra(id core.NodeID, mode energy.Mode, joules float64) {
	n := net.Nodes[id]
	if !n.alive || joules <= 0 {
		return
	}
	n.charge(mode, joules)
}

// PickAlive returns a uniformly chosen alive node satisfying filter (nil
// accepts every alive node), or nil when none qualifies. The failure
// injector's victim policies build on it. It counts the candidates, draws
// one index and walks to it, so it allocates nothing and filter, which
// must be a pure predicate, sees each node up to twice.
func (net *Network) PickAlive(rng *stats.RNG, filter func(*Node) bool) *Node {
	ok := func(n *Node) bool { return n.alive && (filter == nil || filter(n)) }
	count := 0
	for _, n := range net.Nodes {
		if ok(n) {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	k := rng.Intn(count)
	for _, n := range net.Nodes {
		if ok(n) {
			if k == 0 {
				return n
			}
			k--
		}
	}
	panic("node: PickAlive lost a candidate between its two passes")
}
