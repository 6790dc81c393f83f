package forward

import (
	"math/bits"
	"slices"

	"peas/internal/geom"
)

// router answers "which relays carry the next report" over a working set
// that changes one node at a time. Nodes never move, so the geometry is
// worked out once, when the router is built: every node's reach row (and
// the source's) lists the nodes within rt of it as bitmasks over a fixed
// numbering of the nodes. The working set is a bitset in that numbering,
// joining or leaving flips one bit, and a report costs one breadth-first
// search over masks and no allocation.
//
// The route is pinned, not just its length: relay energy charges, the hop
// series and the loss-RNG draw count all depend on *which* shortest path
// wins, so the search visits candidates in exactly the order
// connectivity.ShortestPath does over the working positions listed in
// ascending node order (the differential tests hold it to that). The
// numbering is geom.Index.Order for cellSize = rt, the index
// ShortestPath builds, and Index.Within2 reports its points as a
// subsequence of Order: a row's set bits, taken in ascending order, are
// exactly the points Within2 visits, in the order it visits them.
type router struct {
	idx    geom.Index   // the deployment, bucketed by rt
	pos    []geom.Point // every deployed node, by node id
	direct bool         // src reaches dst in one hop; no relay is needed

	// The numbering: node ids[k] is number k and rank[id] is id's
	// number. sink[k]: node k reaches dst in one hop; nodes never move.
	ids  []int32
	rank []int32
	sink []bool

	// Reach rows, one per node number and a last one for the source, in
	// CSR layout: row k is the (words[j], masks[j]) pairs for j in
	// [starts[k], starts[k+1]), words ascending, each mask the bits of one
	// bitset word that Within2(center, rt) reports.
	starts []int32
	words  []int32
	masks  []uint64

	// Bitsets over the numbering: the working set; the relays an earlier
	// path of the current paths call took; the nodes the current search
	// may still find (working, unused and not yet found).
	working, used, avail []uint64

	prev    []int32   // predecessor number on the search tree; fromSource for a first hop
	queue   []int32   // node numbers in discovery order
	pathIDs []int32   // backing store of found, one path after another
	found   [][]int32 // result of the last paths call
}

// fromSource is the prev value of a relay reached directly from src.
const fromSource = -1

// newRouter indexes the deployment pos inside field with an empty working
// set; set or rebuild populate it.
func newRouter(field geom.Field, pos []geom.Point, src, dst geom.Point, rt float64) *router {
	r := new(router)
	r.reset(field, pos, src, dst, rt)
	return r
}

// reset rebuilds r as newRouter would, in the storage r grew before.
func (r *router) reset(field geom.Field, pos []geom.Point, src, dst geom.Point, rt float64) {
	r.idx.Reset(field, pos, rt)
	n := len(pos)
	nw := (n + 63) / 64
	bitsets := geom.Zeroed(r.working[:cap(r.working)], 3*nw)
	*r = router{
		idx:     r.idx,
		pos:     pos,
		direct:  src.Dist(dst) <= rt,
		ids:     r.idx.Order(),
		rank:    geom.Zeroed(r.rank, n),
		sink:    geom.Zeroed(r.sink, n),
		starts:  geom.Zeroed(r.starts, n+2),
		words:   r.words,
		masks:   r.masks,
		working: bitsets[:nw],
		used:    bitsets[nw : 2*nw],
		avail:   bitsets[2*nw:],
		prev:    geom.Zeroed(r.prev, n),
		// Node-disjoint paths name each node at most once, so neither
		// backing array ever regrows and earlier paths stay valid.
		queue:   geom.Zeroed(r.queue, n)[:0],
		pathIDs: geom.Zeroed(r.pathIDs, n)[:0],
		found:   r.found[:0],
	}
	for k, id := range r.ids {
		r.rank[id] = int32(k)
		r.sink[k] = pos[id].Dist(dst) <= rt
	}
	// Two sweeps, count then fill, as Index.Neighbors builds its table:
	// the rows cost two allocations whatever their sizes.
	pairs := r.reach(src, rt, false)
	r.words = geom.Zeroed(r.words, pairs)
	r.masks = geom.Zeroed(r.masks, pairs)
	r.reach(src, rt, true)
}

// reach walks Within2 from every node and then from src, setting starts
// and returning the number of (word, mask) pairs; with fill it also writes
// the pairs. A new pair starts wherever the word changes, since the
// numbers Within2 reports ascend.
func (r *router) reach(src geom.Point, rt float64, fill bool) int {
	idx := &r.idx
	at := -1
	for k := range r.starts[1:] {
		center := src
		if k < len(r.ids) {
			center = idx.At(int(r.ids[k]))
		}
		word := int32(-1)
		idx.Within2(center, rt, func(i int, _ float64) {
			b := r.rank[i]
			if b>>6 != word {
				word = b >> 6
				at++
			}
			if fill {
				r.words[at] = word
				r.masks[at] |= 1 << (b & 63)
			}
		})
		r.starts[k+1] = int32(at + 1)
	}
	return at + 1
}

// set records that node id joined or left the working set. Setting a node
// to the status it already has is a no-op.
func (r *router) set(id int, working bool) {
	b := r.rank[id]
	if working {
		r.working[b>>6] |= 1 << (b & 63)
	} else {
		r.working[b>>6] &^= 1 << (b & 63)
	}
}

// rebuild replaces the working set wholesale, for the paths that bypass
// the per-node hook: construction over a live network and checkpoint
// restores.
func (r *router) rebuild(working func(id int) bool) {
	for id := range r.pos {
		r.set(id, working(id))
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
	clear(r.used)
	for len(r.found) < width {
		path, ok := r.shortest()
		if !ok {
			break
		}
		r.found = append(r.found, path)
	}
	return r.found
}

// shortest is one breadth-first search from src over the working nodes
// not used by an earlier path of this call. The path is appended to
// pathIDs in src->dst order and its relays are marked used.
func (r *router) shortest() ([]int32, bool) {
	for w, working := range r.working {
		r.avail[w] = working &^ r.used[w]
	}
	r.queue = r.queue[:0]
	r.expand(len(r.ids), fromSource)
	for head := 0; head < len(r.queue); head++ {
		cur := r.queue[head]
		if r.sink[cur] {
			start := len(r.pathIDs)
			for at := cur; at != fromSource; at = r.prev[at] {
				r.used[at>>6] |= 1 << (at & 63)
				r.pathIDs = append(r.pathIDs, r.ids[at])
			}
			path := r.pathIDs[start:]
			slices.Reverse(path)
			return path, true
		}
		r.expand(int(cur), cur)
	}
	return nil, false
}

// expand enqueues every node in reach row row that the search may still
// find, in ascending number (Within2's visit order), recording from as
// its predecessor.
func (r *router) expand(row int, from int32) {
	lo, hi := r.starts[row], r.starts[row+1]
	masks, avail, queue := r.masks[lo:hi], r.avail, r.queue
	for j, w := range r.words[lo:hi] {
		x := masks[j] & avail[w]
		if x == 0 {
			continue
		}
		avail[w] &^= x
		for ; x != 0; x &= x - 1 {
			b := w<<6 | int32(bits.TrailingZeros64(x))
			r.prev[b] = from
			queue = append(queue, b)
		}
	}
	r.queue = queue
}
