package chaos

import (
	"peas/internal/failure"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/radio"
	"peas/internal/stats"
)

// radioFaults adapts a Channel to the simulator's radio fault hook.
type radioFaults struct{ ch *Channel }

var _ radio.FaultInjector = radioFaults{}

func (r radioFaults) JudgeFrame(from, to radio.NodeID) radio.FaultDecision {
	d := r.ch.JudgeFrame(int(from), int(to))
	return radio.FaultDecision{Drop: d.Drop, Copies: d.Copies, Delay: d.Delay}
}

// Controller drives a Plan against a simulated network: it owns the
// fault Channel on the radio medium, schedules every plan event on the
// simulation engine, and strikes the node-fault victims, whether a point
// event or a rate event's arrival process picked them.
type Controller struct {
	net       *node.Network
	channel   *Channel
	counters  *metrics.Counters
	victimRNG *stats.RNG
	partRNG   *stats.RNG
}

// AttachSim wires plan into net. Call after NewNetwork and before
// Start/Run; the plan's events are scheduled on the network's engine
// relative to time zero. Fault counters accumulate into Counters. All
// randomness derives from plan.Seed, so the same plan against the same
// network reproduces the same faults.
func AttachSim(net *node.Network, plan *Plan) (*Controller, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	counters := metrics.NewCounters()
	root := stats.NewRNG(plan.Seed)
	ctl := &Controller{
		net:       net,
		channel:   NewChannel(0, counters),
		counters:  counters,
		victimRNG: root.Split(),
	}
	ctl.channel.rng = root.Split()
	ctl.partRNG = root.Split()
	net.Medium.SetFaultInjector(radioFaults{ch: ctl.channel})

	// Split one RNG stream per Poisson node-fault event up front, in plan
	// order, so stream assignment does not depend on event firing order.
	// The arrival process draws each victim from that stream; strike
	// decides what happens to it.
	for i := range plan.Events {
		ev := &plan.Events[i]
		if channelClass(ev.Class) || ev.Rate <= 0 {
			continue
		}
		inj := failure.NewInjectorWith(net, failure.RatePer5000s(ev.Rate), root.Split(),
			policyFor(ev.Policy), func(victim *node.Node) { ctl.strike(ev, victim) })
		net.Engine.At(ev.At, inj.Start)
		if ev.Until > 0 {
			net.Engine.At(ev.Until, inj.Stop)
		}
	}
	for i := range plan.Events {
		ev := &plan.Events[i]
		if channelClass(ev.Class) {
			ctl.scheduleChannel(ev)
		} else if ev.Rate <= 0 {
			ctl.schedulePoint(ev)
		}
	}
	return ctl, nil
}

// Counters returns the per-fault-class counters.
func (c *Controller) Counters() *metrics.Counters { return c.counters }

func (c *Controller) scheduleChannel(ev *Event) {
	ch := c.channel
	// Partition groups are drawn now, at attach time in plan order, so the
	// assignment never depends on event firing order.
	var groups []int
	if ev.Class == Partition {
		groups = c.partitionGroups(ev)
	}
	apply := func() {
		switch ev.Class {
		case Loss:
			ch.SetLoss(ev.Rate)
		case BurstLoss:
			pGB, pBG := ev.PGoodBad, ev.PBadGood
			lg, lb := ev.LossGood, ev.LossBad
			if pGB == 0 {
				pGB = 0.05
			}
			if pBG == 0 {
				pBG = 0.25
			}
			if lb == 0 {
				lb = 0.9
			}
			ch.SetBurst(pGB, pBG, lg, lb)
		case Duplicate:
			ch.SetDuplication(ev.Rate)
		case Reorder:
			ch.SetReorder(ev.Rate, delayOf(ev))
		case Delay:
			ch.SetDelay(ev.Rate, delayOf(ev))
		case Partition:
			ch.SetPartition(groups)
		}
	}
	revert := func() {
		switch ev.Class {
		case Loss:
			ch.SetLoss(0)
		case BurstLoss:
			ch.ClearBurst()
		case Duplicate:
			ch.SetDuplication(0)
		case Reorder:
			ch.SetReorder(0, 0)
		case Delay:
			ch.SetDelay(0, 0)
		case Partition:
			ch.Heal()
		}
	}
	c.net.Engine.At(ev.At, apply)
	if ev.Until > 0 {
		c.net.Engine.At(ev.Until, revert)
	}
}

// schedulePoint strikes Count victims exactly at ev.At.
func (c *Controller) schedulePoint(ev *Event) {
	count := ev.Count
	if count <= 0 {
		count = 1
	}
	c.net.Engine.At(ev.At, func() {
		for i := 0; i < count; i++ {
			victim := c.pickVictim(ev)
			if victim == nil {
				return
			}
			c.strike(ev, victim)
		}
	})
}

func (c *Controller) pickVictim(ev *Event) *node.Node {
	if ev.Victim != nil {
		id := *ev.Victim
		if id < 0 || id >= len(c.net.Nodes) || !c.net.Nodes[id].Alive() {
			return nil
		}
		return c.net.Nodes[id]
	}
	return c.net.PickAlive(c.victimRNG, policyFor(ev.Policy))
}

// strike applies ev's node fault to victim and counts it. It is the one
// implementation of each node-fault class, for point and rate events alike.
func (c *Controller) strike(ev *Event, victim *node.Node) {
	switch ev.Class {
	case FailStop:
		victim.Fail(node.InjectedFailure)
		c.counters.Add(CtrFailStop, 1)
	case FailRecover:
		victim.Crash()
		c.counters.Add(CtrFailRecover, 1)
		c.net.Engine.Schedule(downtimeOf(ev), func() {
			if victim.Revive() {
				c.counters.Add(CtrRecovered, 1)
			}
		})
	case CrashRestart:
		// The victim's state is captured at the crash instant, as
		// peasnet's Cluster.CrashRestart captures a live node's.
		st := victim.Protocol().Snapshot()
		victim.Crash()
		c.counters.Add(CtrCrash, 1)
		c.net.Engine.Schedule(downtimeOf(ev), func() {
			if victim.ReviveFrom(st) {
				c.counters.Add(CtrRestarted, 1)
			}
		})
	}
}

// partitionGroups builds the node->group assignment for a partition
// event. "stripe" (the default) cuts the field into vertical stripes —
// a spatial cut modelling a severed corridor; note that with the paper's
// 3 m probing range a single stripe boundary severs only the few active
// links that happen to straddle it. "random" assigns groups uniformly
// from the plan's seeded stream, severing a fraction of every
// neighborhood, which guarantees the class is observable on any
// deployment.
func (c *Controller) partitionGroups(ev *Event) []int {
	groups := ev.Groups
	if groups < 2 {
		groups = 2
	}
	out := make([]int, len(c.net.Nodes))
	if ev.Split == "random" {
		for i := range out {
			out[i] = c.partRNG.Intn(groups)
		}
		return out
	}
	w := c.net.Field.Width / float64(groups)
	for i, n := range c.net.Nodes {
		g := int(n.Pos().X / w)
		if g >= groups {
			g = groups - 1
		}
		if g < 0 {
			g = 0
		}
		out[i] = g
	}
	return out
}

// policyFor returns the victim filter a Policy names, in the shape
// Network.PickAlive accepts: nil for "any" (the default), the working
// nodes for "working", the rest for "sleeping".
func policyFor(s string) func(*node.Node) bool {
	switch s {
	case "working":
		return (*node.Node).Working
	case "sleeping":
		return func(n *node.Node) bool { return !n.Working() }
	}
	return nil
}

func delayOf(ev *Event) float64 {
	if ev.Delay > 0 {
		return ev.Delay
	}
	return 0.05
}

func downtimeOf(ev *Event) float64 {
	if ev.Downtime > 0 {
		return ev.Downtime
	}
	return 100
}
