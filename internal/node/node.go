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

	battery    *energy.Battery
	proto      *core.Protocol
	rng        *stats.RNG
	deathEvent *sim.Event
	alive      bool
	cause      DeathCause
	diedAt     float64
	// wasWorking is the last Working() status reported through
	// Network.OnWorkingChange; SetState diffs against it so the hook
	// fires exactly once per flip.
	wasWorking bool
}

var (
	_ core.Platform         = (*Node)(nil)
	_ core.AbsolutePlatform = (*Node)(nil)
	_ radio.Receiver        = (*Node)(nil)
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
func (n *Node) Protocol() *core.Protocol { return n.proto }

// Battery exposes the node's battery for energy accounting.
func (n *Node) Battery() *energy.Battery { return n.battery }

// --- core.Platform implementation ---

// Now returns the simulation time.
func (n *Node) Now() float64 { return n.network.Engine.Now() }

// After schedules fn on the simulation engine.
func (n *Node) After(d float64, fn func()) { n.network.Engine.Schedule(d, fn) }

// At schedules fn at an absolute simulation time. The protocol uses it
// (via core.AbsolutePlatform) so restored timers re-arm at their exact
// recorded deadlines.
func (n *Node) At(at float64, fn func()) { n.network.Engine.At(at, fn) }

// AtArg schedules a shared callback with a pooled argument record (via
// core.ArgPlatform), keeping the protocol timer hot path allocation-free.
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

// SetState maps protocol modes onto battery power modes and keeps the
// scheduled depletion event consistent.
func (n *Node) SetState(s core.State) {
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
		if n.network.OnWorkingChange != nil {
			n.network.OnWorkingChange(n.id, w)
		}
	}
	if n.network.OnState != nil {
		n.network.OnState(n.id, s)
	}
}

// Rand returns the node's private random stream.
func (n *Node) Rand() *stats.RNG { return n.rng }

// --- radio.Receiver implementation ---

// Listening reports whether the radio can receive: the node must be alive
// and not sleeping.
func (n *Node) Listening() bool {
	return n.alive && n.proto.State() != core.Sleeping
}

// Deliver hands a received frame to the protocol.
func (n *Node) Deliver(pkt radio.Packet, dist float64) {
	if !n.alive {
		return
	}
	n.proto.HandleMessage(pkt.Payload, dist)
	if n.network.OnDeliver != nil {
		n.network.OnDeliver(n.id, pkt, dist)
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
	if n.network.OnRevive != nil {
		n.network.OnRevive(n.id)
	}
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
	if n.network.OnRevive != nil {
		n.network.OnRevive(n.id)
	}
	return true
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
	if n.deathEvent != nil {
		n.network.Engine.Cancel(n.deathEvent)
		n.deathEvent = nil
	}
	n.proto.Fail()
	if n.network.OnDeath != nil {
		n.network.OnDeath(n.id, cause)
	}
}

// rescheduleDeath re-anchors the battery-depletion event after any change
// to the drain rate or remaining charge.
func (n *Node) rescheduleDeath() {
	if !n.alive {
		return
	}
	if n.deathEvent != nil {
		n.network.Engine.Cancel(n.deathEvent)
		n.deathEvent = nil
	}
	if n.battery.Dead() {
		n.die(Depletion)
		return
	}
	t := n.battery.DepletionTime(n.Now())
	if t >= sim.Forever {
		return
	}
	n.scheduleDeathAt(t)
}

// runDeathEvent is the shared depletion callback; the event argument is
// the node itself, so the constant re-arming on every energy spend
// allocates nothing. A node also dies when its recomputed deadline does
// not advance the clock: once now passes about 2^20 s, a remainder that
// drains in under half an ulp of now rounds the deadline back to now, and
// re-arming there would fire this event forever at one instant.
func runDeathEvent(a any) {
	n := a.(*Node)
	n.deathEvent = nil
	if !n.alive {
		return
	}
	now := n.Now()
	if n.battery.Remaining(now) <= 1e-12 || n.battery.DepletionTime(now) <= now {
		n.die(Depletion)
		return
	}
	n.rescheduleDeath()
}

// scheduleDeathAt arms the depletion event at the absolute time t. The
// checkpoint restore path calls it with the captured deadline rather than
// recomputing one: recomputation would settle the battery and shift the
// deadline by an ulp off the uninterrupted run's.
func (n *Node) scheduleDeathAt(t float64) {
	n.deathEvent = n.network.Engine.AtArg(t, runDeathEvent, n)
}
