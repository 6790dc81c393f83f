package peasnet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/core"
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
	// OnState, when non-nil, is called on every protocol mode change
	// (from the node's event loop; keep it fast).
	OnState func(id int, s core.State)
	// Battery, when non-nil, enables battery emulation: the node drains
	// a virtual charge by mode and dies on depletion.
	Battery *BatteryConfig

	clk clock // nil means wall
}

// Node is a live PEAS node: one goroutine running the protocol state
// machine over a Transport.
type Node struct {
	cfg       Config
	transport Transport
	proto     *core.Protocol
	rng       *stats.RNG
	scale     float64
	started   time.Time
	// base offsets the protocol clock: a restored node resumes at its
	// checkpoint's recorded time, so the downtime never existed on the
	// node's own clock. Zero for fresh nodes.
	base float64
	// resume, when non-nil, makes Start restore this checkpoint instead
	// of booting the protocol fresh. Set by RestoreNode.
	resume *checkpoint.LiveNode

	listening atomic.Bool
	state     atomic.Int32

	battery        *battery
	onBatteryState func(s core.State)
	stopDepletion  func() bool

	mu        sync.Mutex
	jobs      []func()
	timers    map[uint64]func() bool // pending AtArg timers' stop functions
	nextTimer uint64
	wake      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	running   bool
	stopped   bool
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
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	n.proto = core.New(core.NodeID(cfg.ID), cfg.Protocol, n)
	if cfg.Battery != nil {
		n.battery = newBattery(*cfg.Battery)
		n.armBatteryWatch()
	}
	err := transport.Register(cfg.ID, cfg.Pos, n.listening.Load, func(frame []byte, dist float64) {
		payload, err := Unmarshal(frame)
		if err != nil {
			return // corrupt frame: drop, as a radio would
		}
		n.post(func() { n.proto.HandleMessage(payload, dist) })
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

// State returns the node's current protocol mode. It is safe to call
// from any goroutine.
func (n *Node) State() core.State { return core.State(n.state.Load()) }

// Stats returns a snapshot of the protocol counters. The snapshot is
// taken on the node's event loop, so it is internally consistent.
func (n *Node) Stats() core.Stats {
	ch := make(chan core.Stats, 1)
	n.post(func() { ch <- n.proto.Stats() })
	select {
	case s := <-ch:
		return s
	case <-n.done:
		return core.Stats{}
	}
}

// Start boots the node: the event loop goroutine starts and the protocol
// enters Sleeping mode. Starting twice or after Stop is a no-op. Boot is
// the loop's first job, so the node answers Stats at once.
func (n *Node) Start() {
	n.mu.Lock()
	if n.running || n.stopped {
		n.mu.Unlock()
		return
	}
	n.running = true
	n.started = n.cfg.clk.Now()
	n.mu.Unlock()
	go n.loop()
	defer n.cfg.clk.settle()
	if st := n.resume; st != nil {
		n.post(func() {
			n.proto.RestoreState(st.Proto)
			// Re-apply the restored mode's side effects (radio power,
			// battery mode, observers) that RestoreState bypasses, then
			// re-arm the captured pending timers; deadlines are on the
			// node's own clock, which resumed right at the checkpoint.
			n.SetState(st.Proto.State)
			n.proto.ResumeTimers(st.Proto.Timers)
		})
		return
	}
	n.post(func() { n.proto.Start() })
}

// Checkpoint captures the node's live state — protocol clock, RNG
// stream, remaining battery, protocol state with pending timers — on its
// event loop, so the capture is internally consistent while the rest of
// the cluster keeps running. It fails on a node that is not running.
func (n *Node) Checkpoint() (*checkpoint.LiveNode, error) {
	n.mu.Lock()
	ok := n.running && !n.stopped
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("peasnet: node %d is not running", n.cfg.ID)
	}
	ch := make(chan *checkpoint.LiveNode, 1)
	n.post(func() {
		now := n.Now()
		st := &checkpoint.LiveNode{
			ID:            n.cfg.ID,
			ProtoTime:     now,
			RNG:           n.rng.State(),
			BatteryJoules: -1,
			Proto:         n.proto.Snapshot(),
		}
		if n.battery != nil {
			st.BatteryJoules = n.battery.remainingAt(now)
		}
		ch <- st
	})
	select {
	case st := <-ch:
		return st, nil
	case <-n.done:
		return nil, fmt.Errorf("peasnet: node %d stopped during checkpoint", n.cfg.ID)
	}
}

// RestoreNode creates a node that will, on Start, resume the captured
// checkpoint instead of booting fresh: the protocol clock continues from
// the snapshot's recorded time, the RNG stream picks up where it left
// off, the battery holds the recorded charge, and the pending timers
// re-arm. The checkpoint's ID overrides cfg.ID; the id must be free on
// the transport (Unregister the crashed node first).
func RestoreNode(cfg Config, transport Transport, st *checkpoint.LiveNode) (*Node, error) {
	if st == nil {
		return nil, fmt.Errorf("peasnet: nil checkpoint")
	}
	if st.Proto.State == core.Dead {
		return nil, fmt.Errorf("peasnet: node %d checkpoint is of a dead node", st.ID)
	}
	cfg.ID = st.ID
	if cfg.Battery != nil && st.BatteryJoules >= 0 {
		b := *cfg.Battery
		b.Joules = st.BatteryJoules
		cfg.Battery = &b
	}
	n, err := NewNode(cfg, transport)
	if err != nil {
		return nil, err
	}
	n.base = st.ProtoTime
	if n.battery != nil {
		n.battery.rebase(st.ProtoTime)
	}
	n.rng.Restore(st.RNG)
	n.resume = st
	return n, nil
}

// Stop shuts the node down: pending timers are cancelled and the event
// loop goroutine exits. Stop is idempotent and waits for the loop.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		<-n.done
		return
	}
	n.stopped = true
	for _, stop := range n.timers {
		stop()
	}
	n.timers = nil
	if n.stopDepletion != nil {
		n.stopDepletion()
		n.stopDepletion = nil
	}
	n.cfg.clk.posted(-len(n.jobs)) // dropped unrun
	n.jobs = nil
	running := n.running
	n.mu.Unlock()
	close(n.stop)
	if !running {
		// The event loop never started; nothing will close done.
		close(n.done)
		return
	}
	<-n.done
}

// loop is the node's single logical thread: every protocol interaction
// (message, timer, start) runs here.
func (n *Node) loop() {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			return
		case <-n.wake:
			for {
				n.mu.Lock()
				if len(n.jobs) == 0 {
					n.mu.Unlock()
					break
				}
				job := n.jobs[0]
				n.jobs = n.jobs[1:]
				n.mu.Unlock()
				job()
				n.cfg.clk.posted(-1)
			}
		}
	}
}

// post enqueues fn onto the node's event loop. Posts after Stop are
// dropped.
func (n *Node) post(fn func()) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.jobs = append(n.jobs, fn)
	n.cfg.clk.posted(1)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// --- core.Platform implementation (called from the event loop) ---

// Now returns protocol time: scaled seconds since Start, offset by the
// restored checkpoint time for resumed nodes.
func (n *Node) Now() float64 {
	return n.base + n.cfg.clk.Now().Sub(n.started).Seconds()*n.scale
}

// AtArg schedules fn(arg) on the event loop at protocol time at; a past
// deadline fires at once. Pending timers are cancelled on Stop; a deadline
// too far off for a time.Duration arms none.
func (n *Node) AtArg(at float64, fn func(any), arg any) {
	delay, ok := wallDelay(at-n.Now(), n.scale)
	n.mu.Lock()
	if n.stopped || !ok {
		n.mu.Unlock()
		return
	}
	n.nextTimer++
	id := n.nextTimer
	n.timers[id] = n.cfg.clk.AfterFunc(delay, func() {
		n.mu.Lock()
		delete(n.timers, id)
		n.mu.Unlock()
		n.post(func() { fn(arg) })
	})
	n.mu.Unlock()
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

// SetState tracks the protocol mode and radio power state.
func (n *Node) SetState(s core.State) {
	n.state.Store(int32(s))
	n.listening.Store(s == core.Probing || s == core.Working)
	if n.onBatteryState != nil {
		n.onBatteryState(s)
	}
	if n.cfg.OnState != nil {
		n.cfg.OnState(n.cfg.ID, s)
	}
}

// Rand returns the node's private random stream.
func (n *Node) Rand() *stats.RNG { return n.rng }
