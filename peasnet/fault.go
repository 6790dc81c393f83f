package peasnet

import (
	"sync"
	"time"

	"peas/internal/chaos"
)

// FaultDecision is the fate an injector assigns to one (frame, receiver)
// delivery on a live transport. The zero value delivers normally.
type FaultDecision struct {
	// Drop discards the delivery.
	Drop bool
	// Copies is how many extra duplicate deliveries to make.
	Copies int
	// Delay is extra latency, on the transport's clock, before the
	// delivery (and any duplicates) reaches the receiver.
	Delay time.Duration
}

// FaultInjector is the live runtime's shared fault hook, consulted once
// per (frame, receiver) pair on the sender's broadcast path — the
// counterpart of radio.FaultInjector in the simulator. Implementations
// must be safe for concurrent use: live nodes broadcast from independent
// goroutines.
type FaultInjector interface {
	JudgeFrame(from, to int) FaultDecision
}

// judge is the per-receiver fault step every transport runs: f (nil
// delivers normally) judges the from->to delivery. It returns how many
// copies to deliver — none when the delivery is dropped, one more per
// duplicate — and the extra latency before each.
func judge(f FaultInjector, from, to int) (copies int, delay time.Duration) {
	if f == nil {
		return 1, 0
	}
	fd := f.JudgeFrame(from, to)
	if fd.Drop {
		return 0, 0
	}
	return 1 + fd.Copies, fd.Delay
}

// ChaosInjector adapts the substrate-independent chaos.Channel to live
// transports: it serializes access to the single-threaded channel and
// scales the channel's protocol-time delays down to real time by the
// cluster's time-compression factor.
type ChaosInjector struct {
	mu    sync.Mutex
	ch    *chaos.Channel
	scale float64
}

var _ FaultInjector = (*ChaosInjector)(nil)

// NewChaosInjector wraps ch. timeScale is the cluster's protocol-seconds
// per wall-clock second (Config.TimeScale; values <= 0 mean 1).
func NewChaosInjector(ch *chaos.Channel, timeScale float64) *ChaosInjector {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &ChaosInjector{ch: ch, scale: timeScale}
}

// JudgeFrame implements FaultInjector.
func (ci *ChaosInjector) JudgeFrame(from, to int) FaultDecision {
	ci.mu.Lock()
	d := ci.ch.JudgeFrame(from, to)
	ci.mu.Unlock()
	return FaultDecision{
		Drop:   d.Drop,
		Copies: d.Copies,
		Delay:  time.Duration(d.Delay / ci.scale * float64(time.Second)),
	}
}

// With runs fn with exclusive access to the underlying channel — the
// safe way to reconfigure impairments or read counters while the
// cluster runs.
func (ci *ChaosInjector) With(fn func(ch *chaos.Channel)) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	fn(ci.ch)
}
