// Package node glues the simulation substrates together into sensor
// nodes: each Node owns a battery (internal/energy), a radio endpoint
// (internal/radio) and a PEAS protocol instance (internal/core), and
// implements the protocol's Platform interface on top of the
// discrete-event engine (internal/sim).
package node

import (
	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/radio"
	"peas/internal/sim"
	"peas/internal/stats"
)

// DeathCause says why a node died.
type DeathCause int

// Death causes.
const (
	// Depletion is normal battery exhaustion.
	Depletion DeathCause = iota + 1
	// InjectedFailure is an artificial failure (paper §5.2: "failures
	// are deaths not incurred by energy depletions").
	InjectedFailure
	// TransientFailure is an artificial failure the node later recovers
	// from: the node powers off (losing volatile protocol state) but its
	// battery is preserved, so a Revive can bring it back. The chaos
	// layer's fail-recover and crash-restart fault classes use it.
	TransientFailure
)

// String returns the cause name.
func (c DeathCause) String() string {
	switch c {
	case Depletion:
		return "depletion"
	case InjectedFailure:
		return "failure"
	case TransientFailure:
		return "transient-failure"
	default:
		return "unknown"
	}
}

// Node is one simulated sensor.
type Node struct {
	id      core.NodeID
	pos     geom.Point
	network *Network

	battery energy.Battery
	proto   core.Protocol
	rng     stats.RNG
	// death is the battery-depletion deadline, re-armed in place after
	// every change to the drain rate or the remaining charge.
	death  sim.Timer
	alive  bool
	cause  DeathCause
	diedAt float64
	// wasWorking is the last Working() status reported to the
	// WorkingChange observers; SetState diffs against it so the hook
	// fires exactly once per flip.
	wasWorking bool
}

var (
	_ core.Platform  = (*Node)(nil)
	_ radio.Receiver = (*Node)(nil)
)

// ID returns the node identifier.
func (n *Node) ID() core.NodeID { return n.id }

// Pos returns the node's deployed position.
func (n *Node) Pos() geom.Point { return n.pos }

// Alive reports whether the node is still running.
func (n *Node) Alive() bool { return n.alive }

// DiedAt returns when the node died, and the cause. It returns (0, 0)
// while the node is alive.
func (n *Node) DiedAt() (float64, DeathCause) {
	if n.alive {
		return 0, 0
	}
	return n.diedAt, n.cause
}

// State returns the node's protocol state.
func (n *Node) State() core.State { return n.proto.State() }

// Working reports whether the node is alive and in Working mode.
func (n *Node) Working() bool { return n.alive && n.proto.State() == core.Working }

// Protocol exposes the node's PEAS state machine (read-mostly: tests and
// metrics use it for rates and counters).
func (n *Node) Protocol() *core.Protocol { return &n.proto }

// Battery exposes the node's battery for energy accounting.
func (n *Node) Battery() *energy.Battery { return &n.battery }

// --- core.Platform implementation ---

// Now returns the simulation time.
func (n *Node) Now() float64 { return n.network.Engine.Now() }

// AtArg schedules a shared callback with a pooled argument record on the
// simulation engine, keeping the protocol timer hot path allocation-free.
func (n *Node) AtArg(at float64, fn func(any), arg any) { n.network.Engine.AtArg(at, fn, arg) }

// Broadcast transmits a protocol frame over the shared medium.
func (n *Node) Broadcast(size int, radius float64, payload any) {
	if !n.alive {
		return
	}
	n.network.Medium.Broadcast(radio.Packet{
		From:    radio.NodeID(n.id),
		Size:    size,
		Range:   radius,
		Payload: payload,
	})
}

// BroadcastReply transmits a REPLY in one of the network's pooled
// *core.Reply records, which the medium hands back once no delivery,
// duplicate or carrier-sense retry of the frame is left.
func (n *Node) BroadcastReply(size int, radius float64, msg core.Reply) {
	if !n.alive {
		return
	}
	net := n.network
	var r *core.Reply
	if k := len(net.spareReplies); k > 0 {
		r = net.spareReplies[k-1]
		net.spareReplies = net.spareReplies[:k-1]
	} else {
		r = new(core.Reply)
	}
	*r = msg
	net.Medium.BroadcastArg(radio.Packet{
		From:    radio.NodeID(n.id),
		Size:    size,
		Range:   radius,
		Payload: r,
	}, net.recycleReply)
}

// SetState maps protocol modes onto battery power modes and the radio's
// power flag, and keeps the depletion deadline consistent.
func (n *Node) SetState(s core.State) {
	n.syncRadio()
	now := n.Now()
	switch s {
	case core.Sleeping:
		n.battery.SetMode(now, energy.Sleep)
	case core.Probing, core.Working:
		n.battery.SetMode(now, energy.Idle)
	case core.Dead:
		// Battery handling happens in die/failNow.
	}
	n.rescheduleDeath()
	// Every Working flip passes through here: protocol transitions call
	// SetState via enter(), deaths via proto.Fail()->enter(Dead) (with
	// alive already false), and crash-restarts via ReviveFrom's explicit
	// SetState. The diff against wasWorking keeps the hook edge-triggered.
	if w := n.Working(); w != n.wasWorking {
		n.wasWorking = w
		for _, o := range n.network.observers {
			if o.WorkingChange != nil {
				o.WorkingChange(n.id, w)
			}
		}
	}
	for _, o := range n.network.observers {
		if o.State != nil {
			o.State(n.id, s)
		}
	}
}

// Rand returns the node's private random stream.
func (n *Node) Rand() *stats.RNG { return &n.rng }

// --- radio.Receiver implementation ---

// Listening reports whether the radio can receive: the node must be alive
// and not sleeping. It defines the medium's power flag for the node, which
// syncRadio copies over at every change of either operand.
func (n *Node) Listening() bool {
	return n.alive && n.proto.State() != core.Sleeping
}

// syncRadio hands Listening to the medium, which reads its own copy on
// every receiver sweep instead of asking each candidate. Every change of
// liveness or protocol state reaches it: SetState (protocol transitions,
// boots and both revive paths), die and RestoreNodes.
func (n *Node) syncRadio() {
	n.network.Medium.SetListening(radio.NodeID(n.id), n.Listening())
}

// Deliver hands a received frame to the protocol.
func (n *Node) Deliver(pkt radio.Packet, dist float64) {
	if !n.alive {
		return
	}
	n.proto.HandleMessage(pkt.Payload, dist)
	if n.network.deliverers == 0 {
		return
	}
	for _, o := range n.network.observers {
		if o.Deliver != nil {
			o.Deliver(n.id, pkt, dist)
		}
	}
}

// --- lifecycle ---

func (n *Node) start() {
	n.alive = true
	n.proto.Start()
}

// Fail kills the node immediately with the given cause.
func (n *Node) Fail(cause DeathCause) {
	if !n.alive {
		return
	}
	n.battery.Kill(n.Now())
	n.die(cause)
}

// Crash powers the node off without depleting its battery: volatile
// protocol state is lost but the remaining charge survives, so Revive or
// ReviveFrom can bring the node back later. The chaos layer uses it for
// the fail-recover and crash-restart fault classes. A crashed node draws
// sleep-level current while down.
func (n *Node) Crash() {
	if !n.alive {
		return
	}
	n.battery.SetMode(n.Now(), energy.Sleep)
	n.die(TransientFailure)
}

// Revive reboots a transiently failed node from scratch: a fresh protocol
// boot (volatile state was lost) over the preserved battery. It reports
// whether the node came back; permanent deaths (depletion, fail-stop) and
// exhausted batteries stay down.
func (n *Node) Revive() bool {
	if !n.revivable() {
		return false
	}
	n.alive = true
	n.cause = 0
	n.diedAt = 0
	n.proto.Reboot()
	n.revived()
	return true
}

// ReviveFrom restarts a transiently failed node from a captured protocol
// snapshot, modelling a crash-restart that resumes from a checkpoint on
// stable storage. Pending timers whose deadlines passed during the
// downtime fire immediately after the restore. The downtime itself is not
// attributed to the restored mode's time-in-state accumulators.
func (n *Node) ReviveFrom(st core.ProtocolState) bool {
	if !n.revivable() || st.State == core.Dead {
		return false
	}
	n.alive = true
	n.cause = 0
	n.diedAt = 0
	st.StateSince = n.Now()
	n.proto.RestoreState(st)
	// Re-apply the restored mode's side effects (battery mode, death
	// scheduling, observer hooks) that RestoreState bypasses.
	n.SetState(st.State)
	n.proto.ResumeTimers(st.Timers)
	n.revived()
	return true
}

// revived reports a comeback to the Revive observers.
func (n *Node) revived() {
	for _, o := range n.network.observers {
		if o.Revive != nil {
			o.Revive(n.id)
		}
	}
}

func (n *Node) revivable() bool {
	return !n.alive && n.cause == TransientFailure && !n.battery.Dead()
}

func (n *Node) die(cause DeathCause) {
	if !n.alive {
		return
	}
	n.alive = false
	n.cause = cause
	n.diedAt = n.Now()
	n.death.Stop()
	n.syncRadio()
	n.proto.Fail()
	for _, o := range n.network.observers {
		if o.Death != nil {
			o.Death(n.id, cause)
		}
	}
}

// charge debits joules from the battery under mode, then kills the node
// or moves its depletion deadline: the one path a packet or relay charge
// takes into the battery.
func (n *Node) charge(mode energy.Mode, joules float64) {
	if !n.battery.Spend(n.Now(), mode, joules) {
		n.die(Depletion)
		return
	}
	n.rescheduleDeath()
}

// rescheduleDeath re-anchors the battery-depletion deadline after any
// change to the drain rate or remaining charge.
func (n *Node) rescheduleDeath() {
	if !n.alive {
		return
	}
	if n.battery.Dead() {
		n.die(Depletion)
		return
	}
	t := n.battery.DepletionTime(n.Now())
	if t >= sim.Forever {
		n.death.Stop()
		return
	}
	n.death.ResetAt(t)
}

// depleted is the depletion timer's callback; die stops the timer, so the
// node is alive. It also dies when its recomputed deadline does not advance
// the clock: once now passes about 2^20 s, a remainder that drains in under
// half an ulp of now rounds the deadline back to now, and re-arming there
// would fire the timer forever at one instant.
func depleted(a any) {
	n := a.(*Node)
	now := n.Now()
	if n.battery.Remaining(now) <= 1e-12 || n.battery.DepletionTime(now) <= now {
		n.die(Depletion)
		return
	}
	n.rescheduleDeath()
}
