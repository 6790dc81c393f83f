// Benchmarks regenerating the paper's evaluation: BenchmarkExperiments
// runs each experiment at one seed per point (the paper averages 5 seeds;
// use cmd/peas-bench for the full version) and reports the resulting rows
// via b.Log, plus micro-benchmarks for the hot simulator paths.
//
//	go test -bench=. -benchmem
package peas_test

import (
	"testing"

	"peas"
	"peas/internal/coverage"
	"peas/internal/geom"
	"peas/internal/sim"
	"peas/internal/stats"
)

// BenchmarkExperiments regenerates every experiment of the evaluation,
// one sub-benchmark per id of peas.Experiments(), at -quick scale with one
// seed per point. Each iteration runs under a fresh environment, so the
// figures sharing a sweep each pay for it — select with
// -bench 'Experiments/fig9$'.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range peas.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := peas.DefaultSweepOptions()
				opts.Runs = 1
				opts.Seed = int64(i + 1)
				tbl, err := e.Run(&peas.ExperimentEnv{Options: opts, Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", tbl)
				}
			}
		})
	}
}

// --- micro-benchmarks of the simulator's hot paths ---

// BenchmarkSingleRun480 measures one paper-scale run (480 nodes, full
// lifetime) end to end.
func BenchmarkSingleRun480(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := peas.DefaultRunConfig(480, int64(i+1))
		if _, err := peas.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i%100), func() {})
		if i%1024 == 1023 {
			e.Run(e.Now() + 200)
		}
	}
}

func BenchmarkSpatialIndexWithin(b *testing.B) {
	f := geom.NewField(50, 50)
	rng := stats.NewRNG(1)
	pts := geom.UniformDeploy(f, 800, rng)
	idx := geom.NewIndex(f, pts, 3)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		center := pts[i%len(pts)]
		idx.Within(center, 3, func(int, float64) { count++ })
	}
	_ = count
}

func BenchmarkCoverageLattice(b *testing.B) {
	f := geom.NewField(50, 50)
	lattice := coverage.NewLattice(f, 1)
	sensors := geom.UniformDeploy(f, 100, stats.NewRNG(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lattice.Fraction(sensors, 10, 5)
	}
}

func BenchmarkExponentialSampling(b *testing.B) {
	rng := stats.NewRNG(3)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rng.Exp(0.02)
	}
	_ = sink
}

// BenchmarkNetworkBoot measures deploying and booting a 480-node network
// through the probing storm (first 100 s).
func BenchmarkNetworkBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := peas.NewNetwork(peas.DefaultNetworkConfig(480, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		net.Start()
		net.Run(100)
	}
}

// BenchmarkSensingObserve measures one tracker observation pass.
func BenchmarkSensingObserve(b *testing.B) {
	f := geom.NewField(50, 50)
	tracker := peas.NewSensingTracker(f, 10, 8, 1.5, 1)
	working := geom.UniformDeploy(f, 120, stats.NewRNG(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker.Observe(float64(i), working)
	}
}
