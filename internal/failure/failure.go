// Package failure injects random node failures into a running network,
// reproducing the paper's robustness methodology (§5.2): "we artificially
// inject node failures which are randomly distributed over time ... The
// failure rate denotes the average number of failures per unit time."
package failure

import (
	"peas/internal/core"
	"peas/internal/node"
	"peas/internal/stats"
)

// RatePer5000s converts the paper's "failures per 5000 seconds" unit into
// failures per second.
func RatePer5000s(failures float64) float64 { return failures / 5000 }

// Injector runs the paper's §5.2 process on a network: failures arrive
// at exponentially distributed gaps, and each picks a uniformly random
// alive node, working or sleeping alike. Each arrival draws its gap and
// its victim from the injector's own stream and hands the victim to a
// strike, which by default fails it for good.
type Injector struct {
	net      *node.Network
	rng      *stats.RNG
	rate     float64               // failures per second
	filter   func(*node.Node) bool // eligible victims; nil means every alive node
	strike   func(*node.Node)
	injected int
	victims  []core.NodeID
	stopped  bool
	nextAt   float64 // absolute time of the pending arrival; -1 when none
}

// NewInjector attaches an injector with the given rate (failures/second)
// to the network; each victim fails with node.InjectedFailure. Call Start
// to schedule the first failure. A rate of 0 produces no failures.
func NewInjector(net *node.Network, rate float64, rng *stats.RNG) *Injector {
	return NewInjectorWith(net, rate, rng, nil, failStop)
}

// NewInjectorWith is NewInjector with the arrivals' victims drawn only
// from the alive nodes filter accepts (nil accepts all) and handed to
// strike instead of failed. The arrival process and its stream are the
// same; InjectorState carries neither argument, so a caller that resumes
// a snapshot passes them again.
func NewInjectorWith(net *node.Network, rate float64, rng *stats.RNG,
	filter func(*node.Node) bool, strike func(*node.Node)) *Injector {
	return &Injector{net: net, rng: rng, rate: rate, filter: filter, strike: strike, nextAt: -1}
}

func failStop(victim *node.Node) { victim.Fail(node.InjectedFailure) }

// Start schedules the first failure arrival.
func (in *Injector) Start() {
	if in.rate <= 0 {
		return
	}
	in.scheduleNext()
}

// Stop prevents further failures from being injected.
func (in *Injector) Stop() { in.stopped = true }

// Injected returns how many victims have been struck so far.
func (in *Injector) Injected() int { return in.injected }

// Victims returns the IDs of the struck nodes in order of strike.
func (in *Injector) Victims() []core.NodeID {
	return append([]core.NodeID(nil), in.victims...)
}

func (in *Injector) scheduleNext() {
	delay := in.rng.Exp(in.rate)
	in.nextAt = in.net.Engine.Now() + delay
	in.net.Engine.At(in.nextAt, in.arrive)
}

func (in *Injector) arrive() {
	if in.stopped {
		return
	}
	if victim := in.net.PickAlive(in.rng, in.filter); victim != nil {
		in.strike(victim)
		in.injected++
		in.victims = append(in.victims, victim.ID())
	}
	in.scheduleNext()
}

// InjectorState is the serializable state of an injector: the failure
// history, the RNG stream, and the pending arrival deadline.
type InjectorState struct {
	Injected int
	Victims  []core.NodeID
	Stopped  bool
	// NextAt is the absolute time of the pending failure arrival, or a
	// negative value when none is scheduled.
	NextAt float64
	RNG    stats.RNGState
}

// Snapshot captures the injector state without mutating it.
func (in *Injector) Snapshot() InjectorState {
	return InjectorState{
		Injected: in.injected,
		Victims:  append([]core.NodeID(nil), in.victims...),
		Stopped:  in.stopped,
		NextAt:   in.nextAt,
		RNG:      in.rng.State(),
	}
}

// Resume overwrites the injector with a captured state and re-arms the
// pending arrival at its exact recorded deadline. Call it instead of
// Start when restoring a checkpoint.
func (in *Injector) Resume(st InjectorState) {
	in.injected = st.Injected
	in.victims = append([]core.NodeID(nil), st.Victims...)
	in.stopped = st.Stopped
	in.nextAt = st.NextAt
	in.rng.Restore(st.RNG)
	if !in.stopped && in.rate > 0 && st.NextAt >= 0 {
		in.net.Engine.At(st.NextAt, in.arrive)
	}
}
