package trace

import (
	"peas/internal/core"
	"peas/internal/node"
	"peas/internal/radio"
)

// Attach wires a Recorder into a network's observer hooks, chaining any
// hooks already installed. Call before net.Start.
func Attach(r *Recorder, net *node.Network) {
	prevState := net.OnState
	net.OnState = func(id core.NodeID, s core.State) {
		if prevState != nil {
			prevState(id, s)
		}
		r.Record(Event{
			T:      net.Engine.Now(),
			Kind:   KindState,
			Node:   int(id),
			Detail: s.String(),
		})
	}
	prevDeath := net.OnDeath
	net.OnDeath = func(id core.NodeID, cause node.DeathCause) {
		if prevDeath != nil {
			prevDeath(id, cause)
		}
		r.Record(Event{
			T:      net.Engine.Now(),
			Kind:   KindDeath,
			Node:   int(id),
			Detail: cause.String(),
		})
	}
	prevDeliver := net.OnDeliver
	net.OnDeliver = func(id core.NodeID, pkt radio.Packet, dist float64) {
		if prevDeliver != nil {
			prevDeliver(id, pkt, dist)
		}
		detail := "frame"
		switch pkt.Payload.(type) {
		case core.Probe:
			detail = "probe"
		case core.Reply, *core.Reply:
			detail = "reply"
		}
		r.Record(Event{
			T:      net.Engine.Now(),
			Kind:   KindPacket,
			Node:   int(id),
			Detail: detail,
			Value:  dist,
		})
	}
}
