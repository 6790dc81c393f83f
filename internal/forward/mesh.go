package forward

import "peas/internal/stats"

// GRAB forwards each report along a mesh of interleaved paths whose width
// is controlled by the report's credit: more credit widens the mesh,
// trading energy for delivery robustness on lossy links. This file
// implements that mechanism at the level the evaluation needs:
// node-disjoint shortest paths (router.paths) plus per-hop loss sampling.

// pathSurvives samples per-hop Bernoulli losses for one path. hops is the
// number of transmissions: len(path relays) + 1.
func pathSurvives(hops int, lossRate float64, rng *stats.RNG) bool {
	if lossRate <= 0 {
		return true
	}
	for h := 0; h < hops; h++ {
		if rng.Float64() < lossRate {
			return false
		}
	}
	return true
}
