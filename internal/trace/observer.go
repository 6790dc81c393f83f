package trace

import (
	"peas/internal/core"
	"peas/internal/node"
	"peas/internal/radio"
)

// Attach subscribes a Recorder to a network's state, death and delivery
// events. Call before net.Start.
func Attach(r *Recorder, net *node.Network) {
	record := func(kind Kind, id core.NodeID, detail string, value float64) {
		r.Record(Event{
			T:      net.Engine.Now(),
			Kind:   kind,
			Node:   int(id),
			Detail: detail,
			Value:  value,
		})
	}
	net.Observe(node.Observer{
		State: func(id core.NodeID, s core.State) { record(KindState, id, s.String(), 0) },
		Death: func(id core.NodeID, cause node.DeathCause) { record(KindDeath, id, cause.String(), 0) },
		Deliver: func(id core.NodeID, pkt radio.Packet, dist float64) {
			detail := "frame"
			switch pkt.Payload.(type) {
			case core.Probe:
				detail = "probe"
			case core.Reply, *core.Reply:
				detail = "reply"
			}
			record(KindPacket, id, detail, dist)
		},
	})
}
