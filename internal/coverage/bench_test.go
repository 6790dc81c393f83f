package coverage

import (
	"testing"
	"time"

	"peas/internal/geom"
	"peas/internal/stats"
)

// Microbenchmarks for the K-coverage engines. Run with
//
//	go test ./internal/coverage -run=NONE -bench=. -benchmem
//
// BenchmarkIncrementalSample is the steady-state path the periodic
// coverage tick pays between working-set transitions; it must stay at
// 0 allocs/op (TestIncrementalHotPathAllocFree enforces this and CI runs
// the -benchmem suite). BenchmarkLegacyFraction is the from-scratch
// reference the incremental engine replaced on that tick.

const (
	benchN      = 480
	benchRadius = 10.0
	benchMaxK   = 5
)

func benchSetup(b testing.TB) (*Lattice, []geom.Point) {
	b.Helper()
	field := geom.NewField(50, 50)
	return NewLattice(field, 1), geom.UniformDeploy(field, benchN, stats.NewRNG(1))
}

func BenchmarkIncrementalSample(b *testing.B) {
	lat, sensors := benchSetup(b)
	inc := NewIncremental(lat, sensors, benchRadius, benchMaxK)
	for i := 0; i < benchN/3; i++ {
		inc.Set(i, true)
	}
	buf := make([]float64, 0, benchMaxK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = inc.FractionInto(buf)
	}
	_ = buf
}

// BenchmarkIncrementalChurn measures a transition-heavy epoch: a few
// wake/sleep flips (the ±footprint stamps) followed by one sample, the
// worst realistic duty cycle between two coverage ticks.
func BenchmarkIncrementalChurn(b *testing.B) {
	lat, sensors := benchSetup(b)
	inc := NewIncremental(lat, sensors, benchRadius, benchMaxK)
	for i := 0; i < benchN/3; i++ {
		inc.Set(i, true)
	}
	buf := make([]float64, 0, benchMaxK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			k := (i*7 + j*131) % benchN
			inc.Set(k, !inc.Working(k))
		}
		buf = inc.FractionInto(buf)
	}
	_ = buf
}

// BenchmarkIncrementalReset measures the footprint build a run pays once:
// one row run per candidate row of every sensor, into the storage the
// previous build grew.
func BenchmarkIncrementalReset(b *testing.B) {
	lat, sensors := benchSetup(b)
	inc := NewIncremental(lat, sensors, benchRadius, benchMaxK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Reset(lat, sensors, benchRadius, benchMaxK)
	}
}

func BenchmarkLegacyFraction(b *testing.B) {
	lat, sensors := benchSetup(b)
	working := sensors[:benchN/3]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lat.Fraction(working, benchRadius, benchMaxK)
	}
}

// TestCoverageBuildBytes pins what a run's coverage build allocates: the
// lattice and the footprints of an 800-node deployment at 1 m spacing. A
// footprint is one span per lattice row, not one index per covered point,
// and each lattice axis is stored once, not once per point.
func TestCoverageBuildBytes(t *testing.T) {
	const budget = 640 << 10
	field := geom.NewField(50, 50)
	sensors := geom.UniformDeploy(field, 800, stats.NewRNG(1))
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewIncremental(NewLattice(field, 1), sensors, benchRadius, benchMaxK)
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("coverage build: %d B/op, %d allocs/op, %v/op", got, res.AllocsPerOp(), time.Duration(res.NsPerOp()))
	if got > budget {
		t.Errorf("coverage build allocates %d bytes, budget %d", got, budget)
	}
}

// TestIncrementalHotPathAllocFree pins the 0 allocs/op contract of the
// steady-state sample and of working-set transitions, independent of
// whether the benchmarks run.
func TestIncrementalHotPathAllocFree(t *testing.T) {
	lat, sensors := benchSetup(t)
	inc := NewIncremental(lat, sensors, benchRadius, benchMaxK)
	for i := 0; i < benchN/3; i++ {
		inc.Set(i, true)
	}
	buf := make([]float64, 0, benchMaxK)
	mask := make([]bool, 0, lat.Len())
	if avg := testing.AllocsPerRun(1000, func() {
		buf = inc.FractionInto(buf)
	}); avg != 0 {
		t.Errorf("steady-state sample: %v allocs/op, want 0", avg)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		inc.Set(i%benchN, !inc.Working(i%benchN))
		i++
	}); avg != 0 {
		t.Errorf("working transition: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		mask = inc.CoveredMaskInto(mask)
	}); avg != 0 {
		t.Errorf("covered mask: %v allocs/op, want 0", avg)
	}
}
