package experiment

import (
	"fmt"

	"peas/internal/energy"
	"peas/internal/forward"
	"peas/internal/node"
)

// meshStudy measures GRAB's credit/mesh-width tradeoff over the PEAS
// working set: under lossy data hops, widening the forwarding mesh raises
// the delivery ratio at the cost of extra relayed energy (GRAB [11]
// trades exactly this way via per-report credits).
func meshStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "GRAB substrate: mesh width vs. delivery under per-hop loss (480 nodes, t=2000 s)",
		Headers: []string{"hop-loss", "width", "delivery-ratio", "data energy (J)"},
	}
	for _, loss := range []float64{0.05, 0.15} {
		for _, width := range []int{1, 2, 3} {
			ratio, dataE, err := meshRun(derivedSeed(e.Seed, 950, width), loss, width)
			if err != nil {
				return nil, err
			}
			t.AddRow(fpct(loss), fmt.Sprint(width), ffloat(ratio),
				fmt.Sprintf("%.3f", dataE))
		}
	}
	t.AddNote("a report is delivered if any of its node-disjoint mesh paths " +
		"survives; wider meshes burn proportionally more relay energy")
	return t, nil
}

func meshRun(seed int64, loss float64, width int) (ratio, dataEnergy float64, err error) {
	cfg := node.DefaultConfig(480, seed)
	net, err := node.NewNetwork(cfg)
	if err != nil {
		return 0, 0, err
	}
	fcfg := forward.DefaultConfig(cfg.Field)
	fcfg.HopLossRate = loss
	fcfg.MeshWidth = width
	h := forward.NewHarness(fcfg, net)
	h.Start()
	net.Start()
	net.Run(2000)

	now := net.Engine.Now()
	var dataE float64
	for _, n := range net.Nodes {
		dataE += n.Battery().ConsumedIn(now, energy.DataTransmit)
		dataE += n.Battery().ConsumedIn(now, energy.DataReceive)
	}
	return h.Ratio().Value(), dataE, nil
}
