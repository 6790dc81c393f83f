package peasnet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/stats"
)

// Config parameterizes a live node.
type Config struct {
	// ID is the node identifier, unique within the transport.
	ID int
	// Pos is the node's (fixed) position in meters.
	Pos geom.Point
	// Protocol holds the PEAS parameters.
	Protocol core.Config
	// TimeScale compresses time: one real second advances the protocol
	// clock by TimeScale seconds. 0 means 1 (real time). Demos run at
	// 50-200x; beyond that the 100 ms probe window shrinks below OS timer
	// resolution and protocol timing loses fidelity (e.g. late PROBE
	// copies can be dropped when the window closes early).
	TimeScale float64
	// Seed seeds the node's private random stream. Zero derives one
	// from the ID.
	Seed int64
	// OnState, when non-nil, is called on every protocol mode change. It
	// runs under the node's lock, on whichever goroutine brought the
	// call: keep it fast, and do not call that node's Stats or Stop from
	// it, which would deadlock.
	OnState func(id int, s core.State)
	// Battery, when non-nil, enables battery emulation: the node drains
	// a virtual charge by mode and dies on depletion.
	Battery *BatteryConfig

	clk clock // nil means wall
}

// Node is a live PEAS node: the protocol state machine over a Transport.
// It has no goroutine of its own. Each protocol call — boot, crash or
// restart, a frame, a timer, a battery depletion, Stats — runs to
// completion under the node's lock, on the goroutine that brought it: the
// caller's, a transport's or a timer's. The core.Platform methods run with
// the lock held.
type Node struct {
	cfg       Config
	transport Transport
	proto     *core.Protocol
	rng       *stats.RNG
	scale     float64

	// Read without the lock: by State and by the transport.
	listening atomic.Bool
	state     atomic.Int32

	// mu serializes the protocol calls and guards everything below.
	mu            sync.Mutex
	started       time.Time // zero until Start
	running       bool      // started, and neither stopped nor crashed
	stopped       bool
	battery       *energy.Battery // nil without battery emulation
	stopDepletion func() bool
	timers        map[uint64]func() bool // pending AtArg timers' stop functions
	nextTimer     uint64
}

var _ core.Platform = (*Node)(nil)

// NewNode creates a node and registers it on the transport. Call Start
// to boot the protocol and Stop to shut the node down.
func NewNode(cfg Config, transport Transport) (*Node, error) {
	if err := cfg.Protocol.Validate(); err != nil {
		return nil, err
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ID)*2654435761 + 1
	}
	if cfg.clk == nil {
		cfg.clk = wall
	}
	n := &Node{
		cfg:       cfg,
		transport: transport,
		rng:       stats.NewRNG(cfg.Seed),
		scale:     cfg.TimeScale,
		timers:    make(map[uint64]func() bool),
	}
	n.proto = core.New(core.NodeID(cfg.ID), cfg.Protocol, n)
	if cfg.Battery != nil {
		n.battery = newBattery(*cfg.Battery)
	}
	err := transport.Register(cfg.ID, cfg.Pos, n.listening.Load, func(frame []byte, dist float64) {
		payload, err := Unmarshal(frame)
		if err != nil {
			return // corrupt frame: drop, as a radio would
		}
		n.call(func() { n.proto.HandleMessage(payload, dist) })
	})
	if err != nil {
		return nil, fmt.Errorf("register node %d: %w", cfg.ID, err)
	}
	return n, nil
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.cfg.ID }

// Pos returns the node position.
func (n *Node) Pos() geom.Point { return n.cfg.Pos }

// State returns the node's current protocol mode; a stopped node reports
// Dead. It is safe to call from any goroutine and takes no lock.
func (n *Node) State() core.State { return core.State(n.state.Load()) }

// Stats returns a snapshot of the protocol counters, taken under the
// node's lock, so it is internally consistent. A node that is not running
// returns zero counters at once.
func (n *Node) Stats() core.Stats {
	var s core.Stats
	n.call(func() { s = n.proto.Stats() })
	return s
}

// Start boots the node: the protocol enters Sleeping mode before Start
// returns. Starting twice or after Stop is a no-op.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started.IsZero() || n.stopped {
		return
	}
	n.running = true
	n.started = n.cfg.clk.Now()
	n.proto.Start()
}

// Stop shuts the node down: pending timers are cancelled, the radio goes
// off and the node reports Dead. A stop is not a protocol transition, so
// OnState is not called. Stop waits for a call under way; once it
// returns, no protocol call of the node runs, and a crashed node does not
// restart. Stop is idempotent.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	n.running, n.stopped = false, true
	n.cancelTimers()
	if n.stopDepletion != nil {
		n.stopDepletion()
		n.stopDepletion = nil
	}
	n.state.Store(int32(core.Dead))
	n.listening.Store(false)
}

// crash fails the running node as the simulator's node.Node.Crash does
// and returns its protocol state at the crash instant. The protocol goes
// Dead, which turns the radio off, puts the battery at sleep draw and
// tells OnState. Pending timers are cancelled, and every call is dropped
// until restart. The clock, RNG stream and battery carry on.
func (n *Node) crash() (core.ProtocolState, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.running || n.proto.State() == core.Dead {
		return core.ProtocolState{}, fmt.Errorf("peasnet: node %d is not running or is dead", n.cfg.ID)
	}
	st := n.proto.Snapshot()
	n.proto.Fail()
	n.cancelTimers()
	n.running = false
	return st, nil
}

// restart brings a crashed node back in place from st, as the
// simulator's node.Node.ReviveFrom does: the downtime is left out of the
// restored mode's time-in-state, and timers that fell due meanwhile fire
// at once. A node stopped meanwhile stays stopped, and one whose battery
// emptied while down stays dead.
func (n *Node) restart(st core.ProtocolState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	n.running = true
	now := n.Now()
	if n.battery != nil && n.battery.Remaining(now) <= 0 {
		return
	}
	st.StateSince = now
	n.proto.RestoreState(st)
	// Re-apply the restored mode's side effects (radio power, battery
	// mode, observers) that RestoreState bypasses.
	n.SetState(st.State)
	n.proto.ResumeTimers(st.Timers)
}

// cancelTimers stops every pending AtArg timer.
func (n *Node) cancelTimers() {
	for _, stop := range n.timers {
		stop()
	}
	clear(n.timers)
}

// call runs fn under the node's lock if the node is running, and reports
// whether it did. Frames, timers, depletions and Stats go through it, so
// one that reaches a node that never started, is down after a crash, or
// has stopped, is dropped.
func (n *Node) call(fn func()) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.running {
		return false
	}
	fn()
	return true
}

// --- core.Platform implementation (called under the node's lock) ---

// Now returns protocol time: scaled seconds since Start.
func (n *Node) Now() float64 {
	return n.cfg.clk.Now().Sub(n.started).Seconds() * n.scale
}

// AtArg schedules fn(arg) at protocol time at; a past deadline fires at
// once. The timer fires on a goroutine of the clock's choosing, which
// runs fn under the node's lock. Pending timers are cancelled on Stop and
// on a crash; a deadline too far off for a time.Duration arms none.
func (n *Node) AtArg(at float64, fn func(any), arg any) {
	delay, ok := wallDelay(at-n.Now(), n.scale)
	if !ok {
		return
	}
	n.nextTimer++
	id := n.nextTimer
	n.timers[id] = n.cfg.clk.AfterFunc(delay, func() {
		n.call(func() {
			delete(n.timers, id)
			fn(arg)
		})
	})
}

// wallDelay converts protoSeconds of protocol time into wall time at the
// given time scale. ok is false when the delay is further off than a
// time.Duration can hold, or is NaN: converting it would overflow, which
// on amd64 yields a negative duration that fires at once. A core.Config
// that Validate accepts can draw such sleeps (InitialRate 1e-12 averages
// 1e12 s).
func wallDelay(protoSeconds, scale float64) (time.Duration, bool) {
	ns := protoSeconds / scale * float64(time.Second)
	if !(ns < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(max(ns, 0)), true
}

// Broadcast transmits a protocol frame over the transport.
func (n *Node) Broadcast(size int, radius float64, payload any) {
	frame, err := Marshal(payload)
	if err != nil {
		return
	}
	_ = size // the wire format is fixed-size
	_ = n.transport.Broadcast(n.cfg.ID, n.cfg.Pos, radius, frame)
}

// BroadcastReply transmits a REPLY. Its frame is encoded at once, so the
// value needs no pooling here.
func (n *Node) BroadcastReply(size int, radius float64, msg core.Reply) {
	n.Broadcast(size, radius, msg)
}

// SetState tracks the protocol mode, radio power state and battery mode.
func (n *Node) SetState(s core.State) {
	n.state.Store(int32(s))
	n.listening.Store(s == core.Probing || s == core.Working)
	if n.battery != nil {
		n.watchBattery(s)
	}
	if n.cfg.OnState != nil {
		n.cfg.OnState(n.cfg.ID, s)
	}
}

// Rand returns the node's private random stream.
func (n *Node) Rand() *stats.RNG { return n.rng }
