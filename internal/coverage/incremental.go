package coverage

import (
	"fmt"
	"math"

	"peas/internal/geom"
)

// Incremental is the O(Δworking) K-coverage engine. For a fixed
// deployment it precomputes, once, each sensor's lattice footprint — the
// exact set of lattice points within the sensing radius, decided by the
// same squared-distance predicate Lattice.Fraction uses — and then keeps
// per-lattice-point coverage counts current by stamping ±1 footprints as
// sensors enter and leave the working set. A count-of-counts histogram
// (clamped at maxK) rides along, so answering Fraction is a suffix sum
// over maxK buckets instead of a rebuild over every working disk.
//
// The integer counts are bit-identical to what Lattice.Fraction computes
// from the same working set: footprint membership uses the identical
// `Dist2 <= r*r` comparison on the identical positions, and integer
// addition is order-independent. The reported fractions divide the same
// exact float64 integers by the same lattice size, so they are
// bit-identical too. Lattice.Fraction stays as the from-scratch
// differential-testing reference.
type Incremental struct {
	lat  *Lattice
	maxK int

	// Footprints in CSR layout: sensor i covers the point runs
	// spans[offs[i]:offs[i+1]], at most one per lattice row.
	offs  []int32
	spans []span

	// counts[p] is the number of stamped sensors covering lattice point p.
	counts []int32
	// hist[c] is the number of lattice points whose count, clamped at
	// maxK, equals c. Transitions entirely above maxK do not move it.
	hist []int64
	// working mirrors the stamped set; Set is idempotent against it.
	working    []bool
	numWorking int
}

// span is one sensor's footprint within one lattice row: the n lattice
// points from index base on. Within a row a disk's members are one
// contiguous column range: along the row Dist2 first falls and then rises,
// because every floating-point operation in it is monotone.
type span struct{ base, n int32 }

// NewIncremental builds the engine for a fixed set of sensor positions
// sampled on lat with the given sensing radius, tracking coverage degrees
// 1..maxK. The footprint precomputation costs one legacy-Fraction-like
// pass; every later transition costs one footprint stamp.
func NewIncremental(lat *Lattice, sensors []geom.Point, radius float64, maxK int) *Incremental {
	inc := new(Incremental)
	inc.Reset(lat, sensors, radius, maxK)
	return inc
}

// Reset rebuilds inc as NewIncremental would, in the storage inc grew
// before, with an empty working set.
func (inc *Incremental) Reset(lat *Lattice, sensors []geom.Point, radius float64, maxK int) {
	if maxK < 1 {
		maxK = 1
	}
	*inc = Incremental{
		lat:     lat,
		maxK:    maxK,
		offs:    geom.Zeroed(inc.offs, len(sensors)+1),
		spans:   inc.spans[:0],
		counts:  geom.Zeroed(inc.counts, lat.Len()),
		hist:    geom.Zeroed(inc.hist, maxK+1),
		working: geom.Zeroed(inc.working, len(sensors)),
	}
	inc.hist[0] = int64(lat.Len())
	if lat.Len() == 0 || radius < 0 {
		return
	}
	// A sensor has at most one span per candidate row, so the span table
	// is sized by one pass over the windows and filled by the next.
	rows := 0
	for _, s := range sensors {
		_, _, r0, r1 := lat.window(s, radius)
		rows += max(r1-r0+1, 0)
	}
	inc.spans = geom.Zeroed(inc.spans, rows)[:0]
	r2 := radius * radius
	for i, s := range sensors {
		c0, c1, r0, r1 := lat.window(s, radius)
		for row := r0; row <= r1; row++ {
			if first, n := lat.rowRun(s, r2, row, c0, c1); n > 0 {
				inc.spans = append(inc.spans, span{base: int32(row*len(lat.xs) + first), n: int32(n)})
			}
		}
		inc.offs[i+1] = int32(len(inc.spans))
	}
}

// rowRun returns the columns of one lattice row, within c0..c1, whose
// points lie within the radius of s, as decided by Lattice.Fraction's own
// test, Dist2 <= r2: the run [first, first+n), n = 0 when there is none.
// Along the row Dist2 falls, then rises (see span), so the run surrounds a
// column where it is least. The disk's chord places each end of the run
// to within a column or so, and the exact test then moves each end until
// it holds at the end and fails just past it. The run is thus exactly the
// point set a test of every column in c0..c1 finds, at a few tests a row.
func (l *Lattice) rowRun(s geom.Point, r2 float64, row, c0, c1 int) (first, n int) {
	if c0 > c1 {
		return 0, 0 // the disk lies wholly left or right of the lattice
	}
	d := func(col int) float64 { return l.at(col, row).Dist2(s) }
	// Descend to a column m where Dist2 is least: walking left while it
	// does not rise, then right while it does not rise, ends on the least
	// value whichever side of it the walk starts.
	// The start columns truncate where they would round; the walks absorb
	// the difference.
	m := min(max(int(s.X/l.spacing+0.5), c0), c1)
	dm := d(m)
	for ; m > c0 && d(m-1) <= dm; m-- {
		dm = d(m - 1)
	}
	for ; m < c1 && d(m+1) <= dm; m++ {
		dm = d(m + 1)
	}
	if dm > r2 {
		return 0, 0
	}
	dy := l.ys[row] - s.Y
	w := math.Sqrt(max(r2-dy*dy, 0)) // half the chord
	a := min(max(int((s.X-w)/l.spacing+1), c0), m)
	for a > c0 && d(a-1) <= r2 {
		a--
	}
	for d(a) > r2 {
		a++
	}
	b := min(max(int((s.X+w)/l.spacing), m), c1)
	for b < c1 && d(b+1) <= r2 {
		b++
	}
	for d(b) > r2 {
		b--
	}
	return a, b - a + 1
}

// MaxK returns the highest tracked coverage degree.
func (inc *Incremental) MaxK() int { return inc.maxK }

// Working reports whether sensor i is currently stamped as working.
func (inc *Incremental) Working(i int) bool { return inc.working[i] }

// WorkingCount returns the number of currently working sensors.
func (inc *Incremental) WorkingCount() int { return inc.numWorking }

// Set transitions sensor i into (working=true) or out of (working=false)
// the working set, stamping its footprint onto the counts and histogram.
// Setting the current status is a no-op, so callers can forward raw state
// observations without pre-filtering. The cost is O(footprint); no
// allocation ever happens here.
func (inc *Incremental) Set(i int, working bool) {
	if inc.working[i] == working {
		return
	}
	inc.working[i] = working
	maxK := int32(inc.maxK)
	spans := inc.spans[inc.offs[i]:inc.offs[i+1]]
	if working {
		inc.numWorking++
		for _, s := range spans {
			run := inc.counts[s.base : s.base+s.n]
			for j, c := range run {
				run[j] = c + 1
				if c < maxK {
					inc.hist[c]--
					inc.hist[c+1]++
				}
			}
		}
	} else {
		inc.numWorking--
		for _, s := range spans {
			run := inc.counts[s.base : s.base+s.n]
			for j, c := range run {
				run[j] = c - 1
				if c <= maxK {
					inc.hist[c]--
					inc.hist[c-1]++
				}
			}
		}
	}
}

// Rebuild resets every count and re-stamps exactly the sensors for which
// workingAt reports true. The checkpoint-resume path uses it to
// reconstruct the engine from a restored working set in one pass.
func (inc *Incremental) Rebuild(workingAt func(i int) bool) {
	clear(inc.counts)
	clear(inc.hist)
	clear(inc.working)
	inc.hist[0] = int64(len(inc.counts))
	inc.numWorking = 0
	for i := range inc.working {
		if workingAt(i) {
			inc.Set(i, true)
		}
	}
}

// FractionInto answers the current K-coverage fractions for K=1..MaxK
// into out (reallocated only when its capacity is short) and returns it.
// out[k-1] is the fraction of lattice points covered by at least k
// working sensors. The answer is a suffix sum over the histogram: O(maxK)
// work and, with an adequately sized buffer, zero allocations.
func (inc *Incremental) FractionInto(out []float64) []float64 {
	if cap(out) < inc.maxK {
		out = make([]float64, inc.maxK)
	}
	out = out[:inc.maxK]
	n := len(inc.counts)
	if n == 0 {
		for k := range out {
			out[k] = 0
		}
		return out
	}
	var ge int64
	for k := inc.maxK; k >= 1; k-- {
		ge += inc.hist[k]
		// float64(ge) is the exact integer the legacy path accumulates
		// via repeated ++, and the divisor is identical, so the quotient
		// is bit-identical.
		out[k-1] = float64(ge) / float64(n)
	}
	return out
}

// Fraction is FractionInto with a fresh result slice.
func (inc *Incremental) Fraction() []float64 {
	return inc.FractionInto(make([]float64, inc.maxK))
}

// FractionK returns the K-coverage fraction for a single k in 1..MaxK
// (lower values clamp to 1).
func (inc *Incremental) FractionK(k int) float64 {
	if k < 1 {
		k = 1
	}
	if k > inc.maxK {
		panic(fmt.Sprintf("coverage: FractionK(%d) beyond tracked maxK=%d", k, inc.maxK))
	}
	n := len(inc.counts)
	if n == 0 {
		return 0
	}
	var ge int64
	for c := inc.maxK; c >= k; c-- {
		ge += inc.hist[c]
	}
	return float64(ge) / float64(n)
}

// CoveredMaskInto fills mask (reallocated only when its capacity is
// short) with, for each lattice point, whether at least one working
// sensor covers it — the incremental equivalent of a range query per
// point, deciding membership with the same squared-distance predicate.
func (inc *Incremental) CoveredMaskInto(mask []bool) []bool {
	if cap(mask) < len(inc.counts) {
		mask = make([]bool, len(inc.counts))
	}
	mask = mask[:len(inc.counts)]
	for i, c := range inc.counts {
		mask[i] = c > 0
	}
	return mask
}
