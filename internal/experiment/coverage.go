package experiment

import (
	"peas/internal/core"
	"peas/internal/coverage"
	"peas/internal/node"
)

// attachIncremental builds the O(Δworking) coverage engine over net's
// deployment on lattice, into inc's storage, and subscribes it to the
// network's working-transition hook. Attach before net.Start (or before
// restoring a snapshot); on a resumed run, follow up with inc.Rebuild over
// the restored working set, since checkpoint restores bypass the hook.
func attachIncremental(inc *coverage.Incremental, net *node.Network, lattice *coverage.Lattice, maxK int) *coverage.Incremental {
	inc.Reset(lattice, net.Index.Points(), SensingRange, maxK)
	net.Observe(node.Observer{WorkingChange: func(id core.NodeID, working bool) {
		inc.Set(int(id), working)
	}})
	return inc
}
