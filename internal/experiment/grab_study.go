package experiment

import (
	"fmt"

	"peas/internal/forward"
	"peas/internal/grab"
	"peas/internal/node"
)

// grabCheckStudy cross-validates the two data-forwarding substrates: the
// connectivity-level model used in the lifetime sweeps (internal/forward)
// against the packet-level cost-field gradient riding the real radio
// (internal/grab). Agreement within a few percent justifies using the
// cheap model for the Figures 10/13 sweeps.
func grabCheckStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "GRAB cross-validation: packet-level gradient vs. connectivity model",
		Headers: []string{"nodes", "packet-level ratio", "connectivity ratio", "gap"},
	}
	for _, n := range []int{160, 320, 480} {
		net, err := node.NewNetwork(node.DefaultConfig(n, derivedSeed(e.Seed, 970, n)))
		if err != nil {
			return nil, err
		}
		pk := grab.NewHarness(grab.DefaultConfig(net.Field), net)
		ab := forward.NewHarness(forward.DefaultConfig(net.Field), net)
		pk.Start()
		ab.Start()
		net.Start()
		net.Run(1500)
		pkR, abR := pk.Ratio().Value(), ab.Ratio().Value()
		t.AddRow(fmt.Sprint(n), ffloat(pkR), ffloat(abR), ffloat(abR-pkR))
	}
	t.AddNote("the packet-level gradient pays a few percent to collisions, " +
		"cost-tie dead ends and refresh transients; the connectivity model " +
		"upper-bounds it, so lifetime crossings measured with the model are " +
		"slightly optimistic but shape-preserving")
	return t, nil
}
