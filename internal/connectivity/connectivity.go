// Package connectivity analyzes the working-node topology PEAS produces,
// implementing the checks behind the paper's §3 asymptotic-connectivity
// analysis: the "peas" separation property (no two working nodes closer
// than Rp), the minimum working-neighbor distance bound (1+√5)·Rp, and
// graph connectivity of the working set under a transmitting range Rt.
package connectivity

import (
	"math"

	"peas/internal/geom"
	"peas/internal/stats"
)

// SeparationBound is the §3 geometric constant: when every grid cell of
// size Rp contains a node, each working node has another working node
// within (1+√5)·Rp, and Rt >= (1+√5)·Rp guarantees asymptotic
// connectivity (Theorem 3.1).
var SeparationBound = 1 + math.Sqrt(5)

// Analysis summarizes the working-set topology at one instant.
type Analysis struct {
	// Working is the number of working nodes analyzed.
	Working int
	// Components is the number of connected components under range Rt
	// (0 when there are no working nodes).
	Components int
	// Connected reports Components <= 1.
	Connected bool
	// MinPairDist is the smallest distance between any two working
	// nodes (+Inf when fewer than two).
	MinPairDist float64
	// MaxNearestDist is the largest nearest-working-neighbor distance
	// (+Inf when fewer than two); Lemma 3.2 bounds it by (1+√5)·Rp for
	// interior nodes of a dense deployment.
	MaxNearestDist float64
}

// Analyze computes an Analysis of the given working-node positions with
// transmitting range rt inside field.
func Analyze(field geom.Field, working []geom.Point, rt float64) Analysis {
	a := Analysis{
		Working:        len(working),
		MinPairDist:    math.Inf(1),
		MaxNearestDist: math.Inf(1),
	}
	if len(working) == 0 {
		return a
	}
	if len(working) == 1 {
		a.Components = 1
		a.Connected = true
		return a
	}

	idx := geom.NewIndex(field, working, rt)
	uf := stats.NewUnionFind(len(working))
	nearest := make([]float64, len(working))
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	for i, p := range working {
		i := i
		idx.Within(p, rt, func(j int, dist float64) {
			if j == i {
				return
			}
			uf.Union(i, j)
			if dist < nearest[i] {
				nearest[i] = dist
			}
			if dist < a.MinPairDist {
				a.MinPairDist = dist
			}
		})
	}
	// Nearest neighbors beyond rt are not seen by the index pass above;
	// fall back to a direct scan for nodes still unresolved. Working
	// sets are small (O(100)), so the quadratic fallback is cheap.
	for i := range working {
		if !math.IsInf(nearest[i], 1) {
			continue
		}
		for j := range working {
			if i == j {
				continue
			}
			if d := working[i].Dist(working[j]); d < nearest[i] {
				nearest[i] = d
			}
			if working[i].Dist(working[j]) < a.MinPairDist {
				a.MinPairDist = working[i].Dist(working[j])
			}
		}
	}
	a.MaxNearestDist = 0
	for _, d := range nearest {
		if d > a.MaxNearestDist {
			a.MaxNearestDist = d
		}
	}
	a.Components = uf.Components()
	a.Connected = a.Components <= 1
	return a
}

// ShortestPath returns the minimum-hop relay path between a and b through
// relays with per-hop range rt, as indices into relays. It returns
// (nil, true) when a reaches b directly and (nil, false) when no path
// exists.
//
// No run calls it: GRAB forwarding routes with forward's router, which
// must return exactly the path this function returns. ShortestPath is
// that router's differential reference (forward/mesh_test.go) and the
// subject of the benchmark's frozen connectivity.shortest_path_us kernel,
// which is why it stays here rather than beside its one test user.
func ShortestPath(field geom.Field, relays []geom.Point, a, b geom.Point, rt float64) ([]int, bool) {
	if a.Dist(b) <= rt {
		return nil, true
	}
	if len(relays) == 0 {
		return nil, false
	}
	idx := geom.NewIndex(field, relays, rt)
	prev := make([]int, len(relays))
	visited := make([]bool, len(relays))
	for i := range prev {
		prev[i] = -1
	}
	queue := make([]int, 0, len(relays))
	idx.Within(a, rt, func(i int, _ float64) {
		if !visited[i] {
			visited[i] = true
			prev[i] = -2 // reached directly from a
			queue = append(queue, i)
		}
	})
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if relays[cur].Dist(b) <= rt {
			var path []int
			for at := cur; at >= 0; at = prev[at] {
				path = append(path, at)
				if prev[at] == -2 {
					break
				}
			}
			// Reverse into a->b order.
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			return path, true
		}
		idx.Within(relays[cur], rt, func(j int, _ float64) {
			if !visited[j] {
				visited[j] = true
				prev[j] = cur
				queue = append(queue, j)
			}
		})
	}
	return nil, false
}
