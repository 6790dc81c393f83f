package forward

import (
	"math"

	"peas/internal/geom"
)

// router answers "which relays carry the next report" over a working set
// that changes one node at a time. It keeps the working nodes bucketed on
// a grid and searches that grid with reusable scratch, so a report costs
// one breadth-first search and no allocation, instead of a fresh
// geom.Index plus a dozen slices.
//
// The route is pinned, not just its length: relay energy charges, the hop
// series and the loss-RNG draw count all depend on *which* shortest path
// wins, so the search visits candidates in exactly the order
// connectivity.ShortestPath does over the working positions listed in
// ascending node order (the differential tests hold it to that). That
// needs geom.Index's geometry for cellSize = rt reproduced here — same
// cols/rows, same clamped bucketOf, same c0..c1 × r0..r1 window walked
// rows outer / cols inner, buckets ascending — and the same float
// comparisons. The ~20 lines of grid arithmetic are duplicated rather
// than shared with geom.Index: Index.Within2 is the radio medium's hot
// path and is left untouched.
type router struct {
	pos    []geom.Point // every deployed node, by node id
	src    geom.Point
	rt     float64
	direct bool   // src reaches dst in one hop; no relay is needed
	sink   []bool // sink[id]: node id reaches dst in one hop; nodes never move

	// Bucket grid. Bucket b owns entries[starts[b]:starts[b+1]], sized
	// for every deployed node that falls in it; the first lens[b] of those
	// slots hold the ids of its *working* nodes in ascending order.
	cell       float64
	cols, rows int
	bucket     []int32 // bucket of node id
	starts     []int32
	lens       []int32
	entries    []int32

	// Search scratch. seen[id] == gen marks id visited by the current
	// search; used[id] == call marks it consumed by an earlier path of the
	// current paths call. Both stamps only grow, so nothing is cleared.
	gen     uint64
	seen    []uint64
	used    []uint64
	prev    []int32 // predecessor on the search tree; fromSource for a first hop
	queue   []int32
	pathIDs []int32   // backing store of found, one path after another
	found   [][]int32 // result of the last paths call
}

// fromSource is the prev value of a relay reached directly from src.
const fromSource = -1

// newRouter indexes the deployment pos inside field with an empty working
// set; set or rebuild populate it.
func newRouter(field geom.Field, pos []geom.Point, src, dst geom.Point, rt float64) *router {
	cell := rt
	if cell <= 0 {
		cell = 1
	}
	n := len(pos)
	r := &router{
		pos: pos, src: src, rt: rt,
		direct: src.Dist(dst) <= rt,
		cell:   cell,
		cols:   int(math.Ceil(field.Width/cell)) + 1,
		rows:   int(math.Ceil(field.Height/cell)) + 1,
		bucket: make([]int32, n),
		seen:   make([]uint64, n),
		used:   make([]uint64, n),
		prev:   make([]int32, n),
		// Node-disjoint paths name each node at most once, so neither
		// backing array ever regrows and earlier paths stay valid.
		queue:   make([]int32, 0, n),
		pathIDs: make([]int32, 0, n),
	}
	nb := r.cols * r.rows
	r.starts = make([]int32, nb+1)
	r.lens = make([]int32, nb)
	r.entries = make([]int32, n)
	r.sink = make([]bool, n)
	for i, p := range pos {
		b := r.bucketOf(p)
		r.bucket[i] = int32(b)
		r.starts[b+1]++
		r.sink[i] = p.Dist(dst) <= rt
	}
	for b := 0; b < nb; b++ {
		r.starts[b+1] += r.starts[b]
	}
	return r
}

func (r *router) bucketOf(p geom.Point) int {
	c := int(p.X / r.cell)
	row := int(p.Y / r.cell)
	if c < 0 {
		c = 0
	}
	if c >= r.cols {
		c = r.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= r.rows {
		row = r.rows - 1
	}
	return row*r.cols + c
}

// set records that node id joined or left the working set. Setting a node
// to the status it already has is a no-op.
func (r *router) set(id int, working bool) {
	b := r.bucket[id]
	lo, n := r.starts[b], r.lens[b]
	members := r.entries[lo : lo+n]
	i := 0
	for i < len(members) && members[i] < int32(id) {
		i++
	}
	present := i < len(members) && members[i] == int32(id)
	if present == working {
		return
	}
	if working {
		members = r.entries[lo : lo+n+1]
		copy(members[i+1:], members[i:])
		members[i] = int32(id)
		r.lens[b] = n + 1
	} else {
		copy(members[i:], members[i+1:])
		r.lens[b] = n - 1
	}
}

// rebuild replaces the working set wholesale, for the paths that bypass
// the per-node hook: construction over a live network and checkpoint
// restores.
func (r *router) rebuild(working func(id int) bool) {
	for b := range r.lens {
		r.lens[b] = 0
	}
	for id := range r.pos {
		if working(id) {
			b := r.bucket[id]
			r.entries[r.starts[b]+r.lens[b]] = int32(id)
			r.lens[b]++
		}
	}
}

// paths returns up to width node-disjoint relay paths from src to dst as
// node ids, found greedily: the shortest path first, then the shortest
// among the relays it left, and so on. A direct src->dst reach yields one
// empty path (wider meshes add nothing to it); no path yields none. The
// result aliases the router's scratch and is valid until the next call;
// set does not disturb it.
func (r *router) paths(width int) [][]int32 {
	r.found = r.found[:0]
	r.pathIDs = r.pathIDs[:0]
	if r.direct {
		r.found = append(r.found, nil)
		return r.found
	}
	if r.rt < 0 {
		return r.found // a negative range reaches nothing (Within2's guard)
	}
	call := r.gen + 1
	for len(r.found) < width {
		path, ok := r.shortest(call)
		if !ok {
			break
		}
		for _, id := range path {
			r.used[id] = call
		}
		r.found = append(r.found, path)
	}
	return r.found
}

// shortest is one breadth-first search from src over the working nodes
// not used by an earlier path of this call. The path is appended to
// pathIDs in src->dst order.
func (r *router) shortest(call uint64) ([]int32, bool) {
	r.gen++
	r.queue = r.queue[:0]
	r.sweep(r.src, fromSource, call)
	for head := 0; head < len(r.queue); head++ {
		cur := r.queue[head]
		if r.sink[cur] {
			start := len(r.pathIDs)
			for at := cur; at != fromSource; at = r.prev[at] {
				r.pathIDs = append(r.pathIDs, at)
			}
			path := r.pathIDs[start:]
			for lo, hi := 0, len(path)-1; lo < hi; lo, hi = lo+1, hi-1 {
				path[lo], path[hi] = path[hi], path[lo]
			}
			return path, true
		}
		r.sweep(r.pos[cur], cur, call)
	}
	return nil, false
}

// sweep enqueues every unvisited, unused working node within rt of
// center, recording from as its predecessor. Window and inclusion test
// are geom.Index.Within2's.
func (r *router) sweep(center geom.Point, from int32, call uint64) {
	r2 := r.rt * r.rt
	c0 := int((center.X - r.rt) / r.cell)
	c1 := int((center.X + r.rt) / r.cell)
	r0 := int((center.Y - r.rt) / r.cell)
	r1 := int((center.Y + r.rt) / r.cell)
	if c0 < 0 {
		c0 = 0
	}
	if r0 < 0 {
		r0 = 0
	}
	if c1 >= r.cols {
		c1 = r.cols - 1
	}
	if r1 >= r.rows {
		r1 = r.rows - 1
	}
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			b := row*r.cols + col
			lo := r.starts[b]
			for _, id := range r.entries[lo : lo+r.lens[b]] {
				if r.seen[id] == r.gen || r.used[id] == call {
					continue
				}
				if center.Dist2(r.pos[id]) <= r2 {
					r.seen[id] = r.gen
					r.prev[id] = from
					r.queue = append(r.queue, id)
				}
			}
		}
	}
}
