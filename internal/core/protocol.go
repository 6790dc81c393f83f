package core

import (
	"fmt"

	"peas/internal/stats"
)

// State is a PEAS node operation mode (paper Figure 1), plus the terminal
// Dead state a node enters on energy depletion or injected failure.
type State int

// Operation modes.
const (
	Sleeping State = iota + 1
	Probing
	Working
	Dead
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Sleeping:
		return "sleeping"
	case Probing:
		return "probing"
	case Working:
		return "working"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Platform is the environment a Protocol instance runs in. The simulator
// and the live runtime provide implementations; both must invoke all
// Protocol methods and AtArg callbacks from a single logical thread per
// node (the simulator is single-threaded; peasnet runs each node's calls
// under that node's lock).
type Platform interface {
	// Now returns the current time in seconds.
	Now() float64
	// AtArg schedules fn(arg) once, at the absolute time at; a past
	// deadline fires at once. fn is shared and arg carries the per-timer
	// state, so arming a timer needs no closure, and a deadline restored
	// from a checkpoint is armed exactly as recorded. Callbacks must not
	// run concurrently with message delivery.
	AtArg(at float64, fn func(any), arg any)
	// Broadcast transmits payload so it covers radius meters, in a frame
	// of size bytes.
	Broadcast(size int, radius float64, payload any)
	// BroadcastReply is Broadcast for a REPLY, whose contents change with
	// every send. The simulator sends it as a pooled *Reply holding msg,
	// reused once no delivery, duplicate or retry of the frame is left.
	BroadcastReply(size int, radius float64, msg Reply)
	// SetState informs the platform of a mode change so it can adjust
	// radio power state and battery mode.
	SetState(s State)
	// Rand returns the node's private random stream.
	Rand() *stats.RNG
}

// Stats are cumulative per-node protocol counters.
type Stats struct {
	Wakeups      uint64 // probe rounds begun
	ProbesSent   uint64 // PROBE frames transmitted
	RepliesSent  uint64 // REPLY frames transmitted
	RepliesHeard uint64 // REPLYs received while probing
	RateUpdates  uint64 // Adaptive Sleeping rate adjustments applied
	Turnoffs     uint64 // times this node slept via the §4 extension
	TimeWorking  float64
	TimeSleeping float64
	TimeProbing  float64
}

// Protocol is the per-node PEAS state machine. It keeps no per-neighbor
// state: a sleeping/probing node holds only its rate λ; a working node
// holds only the two-field rate estimator.
type Protocol struct {
	id       NodeID
	cfg      Config
	platform Platform

	state        State
	stateSince   float64
	gen          uint64 // invalidates stale timer callbacks
	lambda       float64
	estimator    RateEstimator // embedded by value: one fewer object per node
	workStart    float64
	heard        []Reply    // REPLYs collected during the current probe window
	replyPending bool       // a REPLY broadcast is already scheduled
	timers       []TimerRec // pending timers, serializable for checkpoints
	stats        Stats

	// freeTimers lists the spent timerEvent records, so arming a timer
	// allocates nothing once the pool has grown; allTimers links every
	// record, spent or armed, for Reset to take back.
	freeTimers *timerEvent
	allTimers  *timerEvent
	// probeBox caches the boxed PROBE payloads (one per sequence number):
	// a node's PROBE contents never change, so the interface boxing
	// allocation is paid once instead of on every transmission.
	probeBox []any
}

// New returns a Protocol for node id. cfg must have been validated; New
// validates again defensively and panics on error, since an invalid
// config here is a programming error in the platform layer.
func New(id NodeID, cfg Config, platform Platform) *Protocol {
	p := new(Protocol)
	p.Reset(id, cfg, platform)
	return p
}

// Reset makes p the protocol New(id, cfg, platform) returns, keeping the
// storage of its REPLY and timer lists and its timer records, so a
// protocol rebuilt on recycled storage allocates nothing. Every timer
// record returns to the free list: the timers armed on the old platform
// must be dropped with it (a simulator engine Reset first). p must be
// zeroed or already node id's: the boxed PROBEs it keeps carry the ID.
func (p *Protocol) Reset(id NodeID, cfg Config, platform Platform) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*p = Protocol{
		id:        id,
		cfg:       cfg,
		platform:  platform,
		state:     Sleeping,
		lambda:    cfg.InitialRate,
		estimator: *NewRateEstimator(cfg.EstimatorK),
		heard:     p.heard[:0],
		timers:    p.timers[:0],
		allTimers: p.allTimers,
		probeBox:  p.probeBox,
	}
	if p.heard == nil {
		// Room for the REPLYs of a busy probe window up front, so the list
		// does not grow a window at a time over the node's life.
		p.heard = make([]Reply, 0, 8)
	}
	for t := p.allTimers; t != nil; t = t.all {
		t.next = p.freeTimers
		p.freeTimers = t
	}
}

// State returns the current operation mode.
func (p *Protocol) State() State { return p.state }

// Rate returns the node's current probing rate λ.
func (p *Protocol) Rate() float64 { return p.lambda }

// Stats returns a copy of the node's counters, with the time-in-state
// accumulators settled up to the current instant.
func (p *Protocol) Stats() Stats {
	s := p.stats
	dt := p.platform.Now() - p.stateSince
	switch p.state {
	case Working:
		s.TimeWorking += dt
	case Sleeping:
		s.TimeSleeping += dt
	case Probing:
		s.TimeProbing += dt
	}
	return s
}

// TimeWorking returns how long the node has been in Working mode, or 0
// when it is not working. REPLYs carry this value for the §4 extension.
func (p *Protocol) TimeWorking() float64 {
	if p.state != Working {
		return 0
	}
	return p.platform.Now() - p.workStart
}

// Start boots the node: it enters Sleeping mode and schedules its first
// wakeup from the exponential distribution with rate λ0.
func (p *Protocol) Start() {
	p.enter(Sleeping)
	p.scheduleWakeup()
}

// Fail transitions the node to Dead immediately, modelling energy
// depletion or an injected failure. All pending callbacks become no-ops.
func (p *Protocol) Fail() {
	if p.state == Dead {
		return
	}
	p.enter(Dead)
}

// Reboot restarts a failed state machine from scratch, as a rebooted node
// would: volatile state — the adapted rate λ, the estimator, REPLYs heard
// — resets to boot values, while the cumulative counters survive for the
// harness. The chaos layer's fail-recover fault class uses it.
func (p *Protocol) Reboot() {
	p.lambda = p.cfg.InitialRate
	p.estimator.Reset()
	p.heard = p.heard[:0]
	p.Start()
}

// enter performs the bookkeeping common to all transitions.
func (p *Protocol) enter(s State) {
	now := p.platform.Now()
	dt := now - p.stateSince
	switch p.state {
	case Working:
		p.stats.TimeWorking += dt
	case Sleeping:
		p.stats.TimeSleeping += dt
	case Probing:
		p.stats.TimeProbing += dt
	}
	p.state = s
	p.stateSince = now
	p.gen++                 // every pending timer below is now invalid ...
	p.timers = p.timers[:0] // ... so the serializable records go too
	p.replyPending = false
	p.platform.SetState(s)
}

// dispatch performs the protocol action a pending timer record encodes.
// It is the single Kind->action mapping, shared by live arming and by the
// checkpoint-restore rebuild.
func (p *Protocol) dispatch(rec TimerRec) {
	switch rec.Kind {
	case TimerWakeup:
		p.wake()
	case TimerProbeSend:
		p.sendProbe(rec.Probe)
	case TimerProbeEnd:
		p.endProbe()
	case TimerReply:
		p.fireReply()
	}
}

// timerEvent is one pooled pending-timer record: the scheduler's argument
// for the shared runTimer callback. Records recycle through the owning
// Protocol's free list, so arming a timer allocates nothing.
type timerEvent struct {
	p    *Protocol
	rec  TimerRec
	gen  uint64
	next *timerEvent // free-list link
	all  *timerEvent // link of every record the protocol made
}

// runTimer is the shared firing callback for every pooled timer record.
func runTimer(a any) {
	t := a.(*timerEvent)
	p := t.p
	rec, gen := t.rec, t.gen
	t.next = p.freeTimers
	p.freeTimers = t
	if p.gen == gen && p.state != Dead {
		p.removeTimer(rec)
		p.dispatch(rec)
	}
}

// scheduleTimer arms the timer described by rec, guarded by the current
// generation: if the node has transitioned since, the callback does
// nothing. The record stays in p.timers while the timer is pending, which
// is what lets a checkpoint capture the node's outstanding schedule as
// plain data and a restore rebuild it via ResumeTimers.
func (p *Protocol) scheduleTimer(rec TimerRec) {
	p.timers = append(p.timers, rec)
	t := p.freeTimers
	if t != nil {
		p.freeTimers = t.next
		t.next = nil
	} else {
		t = &timerEvent{p: p, all: p.allTimers}
		p.allTimers = t
	}
	t.rec = rec
	t.gen = p.gen
	p.platform.AtArg(rec.At, runTimer, t)
}

// afterTimer schedules the rec action after d seconds.
func (p *Protocol) afterTimer(kind TimerKind, probe int, d float64) {
	if d < 0 {
		d = 0
	}
	p.scheduleTimer(TimerRec{Kind: kind, Probe: probe, At: p.platform.Now() + d})
}

func (p *Protocol) removeTimer(rec TimerRec) {
	for i, r := range p.timers {
		if r == rec {
			p.timers = append(p.timers[:i], p.timers[i+1:]...)
			return
		}
	}
}

func (p *Protocol) scheduleWakeup() {
	ts := p.platform.Rand().Exp(p.lambda)
	p.afterTimer(TimerWakeup, 0, ts)
}

// wake begins a probe round (Sleeping -> Probing in Figure 1).
func (p *Protocol) wake() {
	p.stats.Wakeups++
	p.heard = p.heard[:0]
	p.enter(Probing)

	// First PROBE immediately; the remaining copies are spread uniformly
	// over the first half of the window so their REPLYs still fit (§4:
	// "these multiple messages are randomly spread over a small time
	// interval to reduce collisions").
	p.sendProbe(0)
	for i := 1; i < p.cfg.NumProbes; i++ {
		delay := p.platform.Rand().Uniform(0, p.cfg.ProbeWindow/2)
		p.afterTimer(TimerProbeSend, i, delay)
	}
	p.afterTimer(TimerProbeEnd, 0, p.cfg.ProbeWindow)
}

func (p *Protocol) sendProbe(seq int) {
	p.stats.ProbesSent++
	for len(p.probeBox) <= seq {
		p.probeBox = append(p.probeBox, Probe{From: p.id, Seq: len(p.probeBox)})
	}
	p.platform.Broadcast(p.cfg.PacketSize, p.cfg.ProbingRange, p.probeBox[seq])
}

// endProbe closes the probe window: hearing at least one REPLY sends the
// node back to sleep with an adapted rate; silence promotes it to Working.
func (p *Protocol) endProbe() {
	if len(p.heard) == 0 {
		p.startWorking()
		return
	}
	p.adaptRate()
	p.enter(Sleeping)
	p.scheduleWakeup()
}

// adaptRate applies the Adaptive Sleeping update λ <- λ·λd/λ̂ using the
// REPLY with the largest measurement, which yields the lowest probing rate
// (§4: a prober with several working neighbors is not critical to
// replacing any one of them).
func (p *Protocol) adaptRate() {
	var best Reply
	for _, r := range p.heard {
		if r.RateEstimate > best.RateEstimate {
			best = r
		}
	}
	if best.RateEstimate <= 0 {
		// No working neighbor has completed a measurement yet; keep λ.
		return
	}
	desired := best.DesiredRate
	if desired <= 0 {
		desired = p.cfg.DesiredRate
	}
	p.lambda = clamp(p.lambda*desired/best.RateEstimate, p.cfg.MinRate, p.cfg.MaxRate)
	p.stats.RateUpdates++
}

func (p *Protocol) startWorking() {
	p.enter(Working)
	p.workStart = p.platform.Now()
	p.estimator.Reset()
}

// HandleMessage dispatches a received frame. dist is the measured distance
// to the transmitter; the radio layer guarantees dist <= Rp for delivered
// PROBE/REPLY frames. A REPLY arrives as a Reply value, or on the simulator
// as a pooled *Reply that is reused once the call returns; either way it is
// copied.
func (p *Protocol) HandleMessage(payload any, dist float64) {
	switch msg := payload.(type) {
	case Probe:
		p.onProbe(msg)
	case Reply:
		p.onReply(msg)
	case *Reply:
		p.onReply(*msg)
	}
	_ = dist
}

func (p *Protocol) onProbe(msg Probe) {
	if p.state != Working {
		return // only working nodes respond to PROBEs
	}
	if msg.Seq == 0 {
		// Rate-estimate on wakeups, not on retransmitted copies: the
		// aggregate Poisson process of §2.2.1 is the process of wakeup
		// events. Retransmissions still trigger REPLYs below.
		p.estimator.Observe(p.platform.Now())
	}
	// A REPLY is a broadcast heard by every prober within Rp, so one
	// pending REPLY answers every PROBE copy and every concurrent
	// prober; coalescing keeps the channel usable during the boot-up
	// probing storm. The random backoff reduces REPLY collisions when
	// several workers hear the same PROBE (§2.1).
	if p.replyPending {
		return
	}
	p.replyPending = true
	jitter := p.platform.Rand().Uniform(0, p.cfg.ReplyJitterMax)
	p.afterTimer(TimerReply, 0, jitter)
}

// fireReply transmits the backed-off REPLY scheduled by onProbe.
func (p *Protocol) fireReply() {
	p.replyPending = false
	if p.state != Working {
		return
	}
	p.stats.RepliesSent++
	estimate := p.estimator.Report(p.platform.Now())
	if p.cfg.StaleEstimates {
		estimate = p.estimator.Estimate()
	}
	msg := Reply{
		From:         p.id,
		RateEstimate: estimate,
		DesiredRate:  p.cfg.DesiredRate,
		TimeWorking:  p.TimeWorking(),
	}
	// A REPLY's contents change with every send, so unlike a PROBE it
	// cannot be boxed once.
	p.platform.BroadcastReply(p.cfg.PacketSize, p.cfg.ProbingRange, msg)
}

func (p *Protocol) onReply(msg Reply) {
	switch p.state {
	case Probing:
		p.stats.RepliesHeard++
		p.heard = append(p.heard, msg)
	case Working:
		if !p.cfg.TurnoffEnabled || msg.From == p.id {
			return
		}
		// §4 extension: two working nodes within Rp of each other are
		// redundant; the younger one yields so routing state on the
		// elder stays stable.
		if p.TimeWorking() < msg.TimeWorking {
			p.stats.Turnoffs++
			p.enter(Sleeping)
			p.scheduleWakeup()
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
