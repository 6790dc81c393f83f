package experiment

import (
	"peas/internal/core"
	"peas/internal/coverage"
	"peas/internal/geom"
	"peas/internal/node"
)

// attachIncremental builds the O(Δworking) coverage engine over net's
// deployment on lattice and subscribes it to the network's
// working-transition hook. Attach
// before net.Start (or before restoring a snapshot); on a resumed run,
// follow up with inc.Rebuild over the restored working set, since
// checkpoint restores bypass the hook.
func attachIncremental(net *node.Network, lattice *coverage.Lattice, maxK int) *coverage.Incremental {
	positions := make([]geom.Point, len(net.Nodes))
	for i, n := range net.Nodes {
		positions[i] = n.Pos()
	}
	inc := coverage.NewIncremental(lattice, positions, SensingRange, maxK)
	net.Observe(node.Observer{WorkingChange: func(id core.NodeID, working bool) {
		inc.Set(int(id), working)
	}})
	return inc
}
