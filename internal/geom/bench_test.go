package geom

import (
	"testing"

	"peas/internal/stats"
)

// Microbenchmarks for the spatial index hot path. Run with
//
//	go test ./internal/geom -run=NONE -bench=. -benchmem
//
// Within2 and CountWithin are called on every broadcast and every coverage
// sample respectively; both must report 0 allocs/op.

func benchIndex(n int) (*Index, []Point) {
	field := NewField(50, 50)
	rng := stats.NewRNG(1)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	return NewIndex(field, pts, 3), pts
}

func BenchmarkNewIndex(b *testing.B) {
	field := NewField(50, 50)
	rng := stats.NewRNG(1)
	pts := make([]Point, 400)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(field, pts, 3)
	}
}

func BenchmarkWithin2(b *testing.B) {
	idx, pts := benchIndex(400)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Within2(pts[i%len(pts)], 10, func(j int, d2 float64) { sink += j })
	}
	_ = sink
}

func BenchmarkWithin(b *testing.B) {
	idx, pts := benchIndex(400)
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Within(pts[i%len(pts)], 10, func(j int, dist float64) { sink += dist })
	}
	_ = sink
}

func BenchmarkCountWithin(b *testing.B) {
	idx, pts := benchIndex(400)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += idx.CountWithin(pts[i%len(pts)], 3)
	}
	_ = sink
}

// BenchmarkNeighbors is the one-time cost of the neighbour table at the
// largest deployment the evaluation runs (N = 800, Rp = 3 m).
func BenchmarkNeighbors(b *testing.B) {
	idx, _ := benchIndex(800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Neighbors(3)
	}
}

// BenchmarkNeighborsRow is what a broadcast pays per sweep once the table
// exists; BenchmarkWithin2Rp is the same question put to the index.
func BenchmarkNeighborsRow(b *testing.B) {
	idx, pts := benchIndex(800)
	nb := idx.Neighbors(3)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _ := nb.Row(i % len(pts))
		for _, j := range ids {
			sink += int(j)
		}
	}
	_ = sink
}

func BenchmarkWithin2Rp(b *testing.B) {
	idx, pts := benchIndex(800)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Within2(pts[i%len(pts)], 3, func(j int, d2 float64) { sink += j })
	}
	_ = sink
}
