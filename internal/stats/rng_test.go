package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(1)
	c1, c2 := root.Split(), root.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams produced %d/100 equal samples", same)
	}
}

func TestRNGSplitReproducible(t *testing.T) {
	a := NewRNG(7).Split()
	b := NewRNG(7).Split()
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split is not a pure function of the parent seed")
		}
	}
}

func TestExpMoments(t *testing.T) {
	tests := []struct {
		name   string
		lambda float64
	}{
		{"paper-initial-rate", 0.1},
		{"paper-desired-rate", 0.02},
		{"unit", 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rng := NewRNG(3)
			const n = 200000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				x := rng.Exp(tc.lambda)
				if x < 0 {
					t.Fatalf("negative exponential sample %v", x)
				}
				sum += x
				sumSq += x * x
			}
			mean := sum / n
			wantMean := 1 / tc.lambda
			if math.Abs(mean-wantMean)/wantMean > 0.02 {
				t.Errorf("mean = %v, want ≈ %v", mean, wantMean)
			}
			variance := sumSq/n - mean*mean
			wantVar := 1 / (tc.lambda * tc.lambda)
			if math.Abs(variance-wantVar)/wantVar > 0.05 {
				t.Errorf("variance = %v, want ≈ %v", variance, wantVar)
			}
		})
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) should panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestUniformRange(t *testing.T) {
	// The quick.Config pins its own generator: the default is seeded from
	// the clock, which makes failures unreproducible and -count=N runs
	// nondeterministic.
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(5)), MaxCount: 200}
	err := quick.Check(func(seed int64) bool {
		rng := NewRNG(seed)
		for _, b := range [][2]float64{{2, 9.5}, {0, 1}, {-3, 3}, {100, 100.001}} {
			x := rng.Uniform(b[0], b[1])
			if x < b[0] || x >= b[1] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
	// Degenerate range: lo == hi must return exactly lo, never panic.
	if x := NewRNG(1).Uniform(4, 4); x != 4 {
		t.Errorf("Uniform(4,4) = %v, want 4", x)
	}
}

// TestRNGStateRoundTrip pins the property the checkpoint subsystem depends
// on: capturing State mid-stream and restoring it reproduces the remaining
// sequence exactly, across every distribution the simulator draws from.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(1234)
	// Burn an arbitrary prefix mixing all the draw kinds.
	for i := 0; i < 137; i++ {
		r.Float64()
		r.Exp(0.1)
		r.Normal()
		r.Intn(17)
	}
	st := r.State()
	clone := &RNG{}
	clone.Restore(st)
	for i := 0; i < 1000; i++ {
		if a, b := r.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("restored stream diverged at step %d: %x != %x", i, a, b)
		}
	}
}

func TestRNGRestoreInPlace(t *testing.T) {
	r := NewRNG(9)
	st := r.State()
	want := make([]float64, 50)
	for i := range want {
		want[i] = r.Float64()
	}
	r.Restore(st)
	for i := range want {
		if got := r.Float64(); got != want[i] {
			t.Fatalf("in-place restore diverged at step %d", i)
		}
	}
}

func TestRNGRestoreForcesOddIncrement(t *testing.T) {
	// A corrupted checkpoint may carry an even increment; the generator
	// must still cycle rather than degenerate.
	r := &RNG{}
	r.Restore(RNGState{State: 0, Inc: 4})
	if r.State().Inc&1 != 1 {
		t.Fatal("Restore must force the increment odd")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("restored stream looks degenerate: %d/64 distinct outputs", len(seen))
	}
}

func TestIntnUniform(t *testing.T) {
	rng := NewRNG(77)
	const n, draws = 7, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[rng.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("Intn(%d) bucket %d: %d draws, want ≈ %.0f", n, v, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(21)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := rng.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %v, want ≈ 0", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance = %v, want ≈ 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(9)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
