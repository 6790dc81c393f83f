package geom

import "math"

// Index is a bucket-grid spatial index over a fixed set of points. The
// radio medium queries it on every broadcast to find candidate receivers,
// so lookups must not scan all nodes.
//
// The index is built once at deployment time; sensor nodes are stationary
// (paper §5.2), so there is no update path.
type Index struct {
	field Field
	cell  float64
	cols  int
	rows  int
	// Buckets in CSR layout: the members of bucket b are
	// entries[starts[b]:starts[b+1]], in ascending point order. One flat
	// backing array replaces a slice-of-slices: two allocations at build
	// time and contiguous scans at query time.
	starts  []int32
	entries []int32
	points  []Point
}

// NewIndex builds an index over points with the given bucket edge length.
// A cell size near the dominant query radius keeps candidate sets small.
func NewIndex(field Field, points []Point, cellSize float64) *Index {
	if cellSize <= 0 {
		cellSize = 1
	}
	cols := int(math.Ceil(field.Width/cellSize)) + 1
	rows := int(math.Ceil(field.Height/cellSize)) + 1
	idx := &Index{
		field:  field,
		cell:   cellSize,
		cols:   cols,
		rows:   rows,
		starts: make([]int32, cols*rows+1),
		points: append([]Point(nil), points...),
	}
	// Counting pass, prefix sum, fill pass: starts[b] ends up at the
	// beginning of bucket b and the fill (in point order) keeps each
	// bucket's members ascending, which pins the deterministic visit order.
	counts := make([]int32, cols*rows)
	for _, p := range idx.points {
		counts[idx.bucketOf(p)]++
	}
	var sum int32
	for b, c := range counts {
		idx.starts[b] = sum
		sum += c
	}
	idx.starts[len(counts)] = sum
	idx.entries = make([]int32, sum)
	fill := make([]int32, cols*rows)
	copy(fill, idx.starts[:len(counts)])
	for i, p := range idx.points {
		b := idx.bucketOf(p)
		idx.entries[fill[b]] = int32(i)
		fill[b]++
	}
	return idx
}

func (idx *Index) bucketOf(p Point) int {
	c := int(p.X / idx.cell)
	r := int(p.Y / idx.cell)
	if c < 0 {
		c = 0
	}
	if c >= idx.cols {
		c = idx.cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= idx.rows {
		r = idx.rows - 1
	}
	return r*idx.cols + c
}

// Len returns the number of indexed points.
func (idx *Index) Len() int { return len(idx.points) }

// At returns the position of point i.
func (idx *Index) At(i int) Point { return idx.points[i] }

// Order returns every point's index once, buckets ascending and points
// ascending within a bucket. Within2 reports its points as a subsequence
// of Order, so numbering the points by their place in it makes every
// query's answer ascending. The slice aliases the index; do not modify it.
func (idx *Index) Order() []int32 { return idx.entries }

// Within calls fn for every indexed point within radius of center,
// including a point exactly at the radius. fn receives the point's index
// and its distance from center. Iteration order is deterministic (bucket
// scan order) so simulations remain reproducible.
func (idx *Index) Within(center Point, radius float64, fn func(i int, dist float64)) {
	idx.Within2(center, radius, func(i int, d2 float64) {
		fn(i, math.Sqrt(d2))
	})
}

// Within2 is the hot-path variant of Within: fn receives the squared
// distance, so callers that filter most candidates (the radio medium
// visits every in-range node but delivers to few) pay for a Sqrt only on
// the points they keep. Inclusion is decided on squared values exactly as
// in Within — the two visit identical point sets in identical order.
func (idx *Index) Within2(center Point, radius float64, fn func(i int, d2 float64)) {
	if radius < 0 {
		return
	}
	r2 := radius * radius
	c0 := int((center.X - radius) / idx.cell)
	c1 := int((center.X + radius) / idx.cell)
	r0 := int((center.Y - radius) / idx.cell)
	r1 := int((center.Y + radius) / idx.cell)
	if c0 < 0 {
		c0 = 0
	}
	if r0 < 0 {
		r0 = 0
	}
	if c1 >= idx.cols {
		c1 = idx.cols - 1
	}
	if r1 >= idx.rows {
		r1 = idx.rows - 1
	}
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			b := row*idx.cols + col
			for _, i := range idx.entries[idx.starts[b]:idx.starts[b+1]] {
				d2 := center.Dist2(idx.points[i])
				if d2 <= r2 {
					fn(int(i), d2)
				}
			}
		}
	}
}

// CountWithin returns the number of indexed points within radius of center.
// The loop is inlined rather than layered over Within: counting pays no
// callback indirection per candidate.
func (idx *Index) CountWithin(center Point, radius float64) int {
	if radius < 0 {
		return 0
	}
	r2 := radius * radius
	c0 := int((center.X - radius) / idx.cell)
	c1 := int((center.X + radius) / idx.cell)
	r0 := int((center.Y - radius) / idx.cell)
	r1 := int((center.Y + radius) / idx.cell)
	if c0 < 0 {
		c0 = 0
	}
	if r0 < 0 {
		r0 = 0
	}
	if c1 >= idx.cols {
		c1 = idx.cols - 1
	}
	if r1 >= idx.rows {
		r1 = idx.rows - 1
	}
	n := 0
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			b := row*idx.cols + col
			for _, i := range idx.entries[idx.starts[b]:idx.starts[b+1]] {
				if center.Dist2(idx.points[i]) <= r2 {
					n++
				}
			}
		}
	}
	return n
}

// Neighbors is the answer to Within2 for every indexed point at one
// radius, worked out once: the points never move, so a caller that asks
// the same question per broadcast can walk a row instead of re-scanning a
// bucket window. Row i is entries [starts[i], starts[i+1]) of ids and d2 —
// CSR layout, three flat arrays — and holds exactly the (index, squared
// distance) pairs Within2(At(i), radius) reports, in the order it reports
// them, the point itself included.
type Neighbors struct {
	radius float64
	starts []int32
	ids    []int32
	d2     []float64
}

// Neighbors builds the table for radius. It costs two Within2 sweeps per
// point (count, then fill).
func (idx *Index) Neighbors(radius float64) *Neighbors {
	nb := &Neighbors{radius: radius, starts: make([]int32, len(idx.points)+1)}
	for i, p := range idx.points {
		nb.starts[i+1] = nb.starts[i] + int32(idx.CountWithin(p, radius))
	}
	total := nb.starts[len(idx.points)]
	nb.ids = make([]int32, 0, total)
	nb.d2 = make([]float64, 0, total)
	for _, p := range idx.points {
		idx.Within2(p, radius, func(j int, d2 float64) {
			nb.ids = append(nb.ids, int32(j))
			nb.d2 = append(nb.d2, d2)
		})
	}
	return nb
}

// Radius returns the radius the table was built for.
func (nb *Neighbors) Radius() float64 { return nb.radius }

// Row returns point i's neighbours and their squared distances, index for
// index. The slices alias the table and must not be modified.
func (nb *Neighbors) Row(i int) (ids []int32, d2 []float64) {
	lo, hi := nb.starts[i], nb.starts[i+1]
	return nb.ids[lo:hi], nb.d2[lo:hi]
}
