// Package stats provides the random-number distributions and statistical
// helpers used throughout the PEAS simulator: seeded RNG streams,
// exponential/uniform/Poisson sampling, summary statistics and confidence
// intervals, and a union-find structure used for connectivity analysis.
//
// The simulator must be exactly reproducible from (config, seed), so this
// package implements its own explicitly seeded generator rather than
// relying on a global source. The generator state is two uint64 words and
// is fully serializable (see State/RNGState), which is what makes the
// checkpoint/restore subsystem possible: math/rand.Rand state is opaque,
// so a resumable simulation needs a stream whose exact position can be
// captured and re-established.
package stats

import "math"

// RNG is a deterministic random stream backed by a PCG-XSH-RR 64/32
// generator (O'Neill 2014): 64 bits of LCG state plus a 64-bit odd stream
// increment. It adds the distributions the PEAS model needs.
//
// RNG is not safe for concurrent use; the discrete-event simulator is
// single-threaded by design, and each concurrent component must own its
// own stream (see Split).
type RNG struct {
	state uint64
	inc   uint64 // always odd
}

// RNGState is the serializable position of a stream: the two generator
// words. Restoring it reproduces the stream's future output exactly.
type RNGState struct {
	State uint64
	Inc   uint64
}

const (
	pcgMultiplier = 6364136223846793005
	splitmixGamma = 0x9e3779b97f4a7c15
)

// splitmix64 is the seed-expansion hash (Steele et al. 2014): it maps any
// 64-bit seed, including small sequential ones, to a well-mixed word.
func splitmix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRNG returns a stream seeded with seed. The seed is expanded through
// splitmix64 into the PCG state and stream-selector words.
func NewRNG(seed int64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed repositions r at the start of the stream NewRNG(seed) returns, so a
// generator held by value is seeded without allocating.
func (r *RNG) Seed(seed int64) {
	s := splitmix64(uint64(seed))
	r.pcg(s, splitmix64(s))
}

// NewRNGFromState returns a stream positioned exactly at st, as previously
// captured with State.
func NewRNGFromState(st RNGState) *RNG {
	r := &RNG{}
	r.Restore(st)
	return r
}

// pcg initializes the generator following the PCG reference seeding: the
// stream selector is forced odd and the initial state is advanced once
// past the seed so that nearby seeds decorrelate immediately.
func (r *RNG) pcg(seed, stream uint64) {
	*r = RNG{state: 0, inc: stream<<1 | 1}
	r.next32()
	r.state += seed
	r.next32()
}

// State returns the stream's exact position. NewRNGFromState or Restore
// with this value continues the sequence without a gap.
func (r *RNG) State() RNGState { return RNGState{State: r.state, Inc: r.inc} }

// Restore repositions the stream to st. The increment is forced odd, the
// one invariant the generator requires, so restoring a corrupted state
// still yields a working (if different) stream rather than a degenerate
// one.
func (r *RNG) Restore(st RNGState) {
	r.state = st.State
	r.inc = st.Inc | 1
}

// Split derives an independent child stream from the parent. The child is
// seeded from the parent's sequence, so distinct calls yield distinct
// streams while remaining a pure function of the root seed.
func (r *RNG) Split() *RNG {
	child := new(RNG)
	r.split(child)
	return child
}

// split seeds child as Split's result. Split stays small enough to inline,
// so a child that does not outlive its caller is not heap-allocated.
func (r *RNG) split(child *RNG) { child.pcg(r.Uint64(), r.Uint64()) }

// next32 produces the next raw 32-bit output (PCG-XSH-RR output function
// over an LCG step).
func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns a uniform 64-bit word.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.next32())
	lo := uint64(r.next32())
	return hi<<32 | lo
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform sample in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn requires n > 0")
	}
	return int(r.int63n(int64(n)))
}

// int63n returns a uniform sample in [0, n) using the rejection method, so
// the result is exactly uniform rather than modulo-biased.
func (r *RNG) int63n(n int64) int64 {
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed sample with rate lambda, i.e.
// mean 1/lambda, by inversion. This is the sleeping-duration distribution
// of PEAS (paper §2.1: f(ts) = λ e^{-λ ts}).
//
// Exp panics if lambda <= 0: a non-positive probing rate would make a node
// sleep forever, which is always a configuration error.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("stats: Exp requires lambda > 0")
	}
	// 1 - Float64() is in (0, 1], so the log is finite.
	return -math.Log(1-r.Float64()) / lambda
}

// Poisson returns a Poisson-distributed sample with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation; adequate for the failure-count draws
		// used by the experiment harness.
		n := int(math.Round(mean + math.Sqrt(mean)*r.Normal()))
		if n < 0 {
			n = 0
		}
		return n
	}
	limit := math.Exp(-mean)
	n := 0
	for p := r.Float64(); p > limit; p *= r.Float64() {
		n++
	}
	return n
}

// Normal returns a standard normal sample via the Box-Muller transform.
// Unlike the ziggurat in math/rand, the transform keeps no cached spare
// sample, so the stream position after a draw is well defined — a
// requirement for exact checkpoint/restore.
func (r *RNG) Normal() float64 {
	// 1 - Float64() is in (0, 1], keeping the log finite.
	u := 1 - r.Float64()
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
