package analysis

import (
	"math"
	"testing"

	"peas/internal/coverage"
	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/stats"
)

func TestExpectedEmptyCellsMatchesSimulation(t *testing.T) {
	// 289 cells (17x17 of 3 m on ~50 m), deployments as in DensityStudy.
	const (
		l     = 50.0
		c     = 3.0
		cells = 17 * 17
	)
	rng := stats.NewRNG(7)
	for _, n := range []int{160, 480, 1600} {
		want := ExpectedEmptyCells(cells, n)
		// Empirical mean over many deployments.
		const runs = 200
		total := 0
		for r := 0; r < runs; r++ {
			pts := geom.UniformDeploy(geom.NewField(l, l), n, rng)
			occupied := make([]bool, cells)
			for _, p := range pts {
				ci := int(p.X / c)
				ri := int(p.Y / c)
				if ci > 16 {
					ci = 16
				}
				if ri > 16 {
					ri = 16
				}
				occupied[ri*17+ci] = true
			}
			for _, o := range occupied {
				if !o {
					total++
				}
			}
		}
		got := float64(total) / runs
		// The formula assumes equal cells; the 17th row/column of the
		// 50 m field is a 2 m sliver, so allow a generous band.
		if math.Abs(got-want) > math.Max(3, want*0.35) {
			t.Errorf("n=%d: empirical empty cells %.1f vs model %.1f", n, got, want)
		}
	}
}

func TestExpectedEmptyCellsEdge(t *testing.T) {
	if ExpectedEmptyCells(0, 10) != 0 {
		t.Error("zero cells")
	}
	if got := ExpectedEmptyCells(10, 0); got != 10 {
		t.Errorf("no nodes: %v, want all 10 empty", got)
	}
}

func TestLemmaConstant(t *testing.T) {
	// DensityStudy's k at 480 nodes: 9·480/(2500·ln 50) ≈ 0.44.
	got := LemmaConstant(3, 50, 480)
	if math.Abs(got-0.4417) > 0.01 {
		t.Errorf("k = %v", got)
	}
	if !math.IsInf(LemmaConstant(3, 1, 100), 1) {
		t.Error("l<=1 should be infinite")
	}
}

func TestPoissonCoverageBasics(t *testing.T) {
	if PoissonCoverage(0, 10, 1) != 0 || PoissonCoverage(0.1, 0, 1) != 0 {
		t.Error("degenerate inputs")
	}
	// Monotone in k.
	for k := 1; k < 6; k++ {
		if PoissonCoverage(0.05, 10, k+1) > PoissonCoverage(0.05, 10, k) {
			t.Fatalf("coverage not monotone at k=%d", k)
		}
	}
	// Known value: mean = 1, P(N >= 1) = 1 - e^-1.
	density := 1 / (math.Pi * 100) // mean area count 1 at r=10
	got := PoissonCoverage(density, 10, 1)
	want := 1 - math.Exp(-1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P = %v, want %v", got, want)
	}
}

func TestPoissonCoveragePredictsSimulatedKCoverage(t *testing.T) {
	// Run PEAS to equilibrium and compare the analytic K-coverage of a
	// Poisson field of equal density against the measured lattice
	// fractions. Boundary effects depress the measurement, so the model
	// is expected to be an optimistic approximation.
	cfg := node.DefaultConfig(480, 11)
	net, err := node.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	net.Run(600)
	working := net.WorkingPositions()
	density := float64(len(working)) / (cfg.Field.Width * cfg.Field.Height)
	lattice := coverage.NewLattice(cfg.Field, 1)
	byK := lattice.Fraction(working, 10, 5)
	for k := 1; k <= 5; k++ {
		model := PoissonCoverage(density, 10, k)
		measured := byK[k-1]
		if model < measured-0.05 {
			t.Errorf("k=%d: model %0.3f should not undercut measured %0.3f", k, model, measured)
		}
		if model-measured > 0.30 {
			t.Errorf("k=%d: model %0.3f too far above measured %0.3f", k, model, measured)
		}
	}
}

func TestEstimatorErrorModel(t *testing.T) {
	if got := EstimatorRelativeError(32); math.Abs(got-1/math.Sqrt(32)) > 1e-12 {
		t.Errorf("rel err = %v", got)
	}
	if !math.IsInf(EstimatorRelativeError(0), 1) {
		t.Error("k=0")
	}
	// The paper's statement: with k >= 16, the measured average is
	// within 1% ... that holds for the *mean of many windows*; for a
	// single window the confidence of ±25% at k=32 is high.
	if c := EstimatorConfidence(32, 0.25); c < 0.84 {
		t.Errorf("confidence(32, 25%%) = %v", c)
	}
	// Confidence grows with k and eps.
	if EstimatorConfidence(64, 0.1) <= EstimatorConfidence(16, 0.1) {
		t.Error("confidence not monotone in k")
	}
	if EstimatorConfidence(32, 0.2) <= EstimatorConfidence(32, 0.1) {
		t.Error("confidence not monotone in eps")
	}
	if EstimatorConfidence(0, 0.1) != 0 || EstimatorConfidence(32, 0) != 0 {
		t.Error("degenerate confidence")
	}
}

func TestEstimatorConfidenceMatchesMonteCarlo(t *testing.T) {
	rng := stats.NewRNG(13)
	const (
		k      = 32
		eps    = 0.2
		trials = 5000
	)
	hits := 0
	for trial := 0; trial < trials; trial++ {
		var sum float64
		for i := 0; i < k; i++ {
			sum += rng.Exp(1)
		}
		meanInterval := sum / k
		if math.Abs(meanInterval-1) <= eps {
			hits++
		}
	}
	got := float64(hits) / trials
	want := EstimatorConfidence(k, eps)
	if math.Abs(got-want) > 0.05 {
		t.Errorf("monte carlo %v vs model %v", got, want)
	}
}

func TestLifetimeModelMatchesSweepSlope(t *testing.T) {
	// The measured equilibrium working set is ~135-160 nodes, but the
	// energy-weighted effective working set over a whole lifetime is
	// smaller (late-life phases run sparse). Check the model brackets
	// the measured Figure 9/10 slope (~32-37 s/node) for plausible W.
	low := DefaultLifetimeModel(160)
	high := DefaultLifetimeModel(110)
	low.FailedFraction = 0.14
	high.FailedFraction = 0.14
	slopeLow, slopeHigh := low.SlopePerNode(), high.SlopePerNode()
	if slopeLow > 33 || slopeHigh < 36 {
		t.Errorf("model slope band [%v, %v] misses the measured 32-37 s/node",
			slopeLow, slopeHigh)
	}
	// Lifetime is linear in n by construction.
	m := DefaultLifetimeModel(140)
	if math.Abs(m.Lifetime(800)-5*m.Lifetime(160)) > 1e-9 {
		t.Error("model lifetime not linear")
	}
	if DefaultLifetimeModel(0).Lifetime(100) != 0 {
		t.Error("degenerate model")
	}
}

func TestSaturationDensityMatchesSimulation(t *testing.T) {
	// The §3 pea-packing bound: with an ideal channel, PEAS saturates
	// around the RSA jamming density.
	want := SaturationDensity(2500, 3) // ≈ 193 for the paper's field
	if want < 150 || want > 250 {
		t.Fatalf("model saturation %v out of plausible band", want)
	}
	cfg := node.DefaultConfig(1200, 17) // dense deployment saturates fast
	cfg.Radio.CollisionsEnabled = false
	cfg.Protocol.TurnoffEnabled = false
	net, err := node.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	net.Run(600)
	got := float64(net.WorkingCount())
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("simulated saturation %v vs RSA model %v", got, want)
	}
	if SaturationDensity(100, 0) != 0 {
		t.Error("degenerate rp")
	}
}
