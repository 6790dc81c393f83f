package geom

import (
	"math"
	"testing"

	"peas/internal/stats"
)

// requireRowsEqualWithin2 is the table's whole contract: row i is the
// callback sequence of Within2(At(i), radius) — same indices, same order,
// same squared distances to the bit.
func requireRowsEqualWithin2(t *testing.T, name string, idx *Index, radius float64) {
	t.Helper()
	nb := idx.Neighbors(radius)
	if nb.Radius() != radius {
		t.Fatalf("%s r=%v: table reports radius %v", name, radius, nb.Radius())
	}
	for i := 0; i < idx.Len(); i++ {
		ids, d2 := nb.Row(i)
		if len(ids) != len(d2) {
			t.Fatalf("%s r=%v row %d: %d ids but %d distances", name, radius, i, len(ids), len(d2))
		}
		k := 0
		idx.Within2(idx.At(i), radius, func(j int, want float64) {
			if k >= len(ids) {
				k++
				return
			}
			if int(ids[k]) != j || math.Float64bits(d2[k]) != math.Float64bits(want) {
				t.Fatalf("%s r=%v row %d entry %d: table has (%d, %x), Within2 reports (%d, %x)",
					name, radius, i, k, ids[k], math.Float64bits(d2[k]), j, math.Float64bits(want))
			}
			k++
		})
		if k != len(ids) {
			t.Fatalf("%s r=%v row %d: table has %d entries, Within2 reports %d", name, radius, i, len(ids), k)
		}
	}
}

// TestNeighborsMatchWithin2 runs the differential over the corpora the
// TestIndex* tests pin Within2 itself on: uniform deployments at several
// cell sizes, points exactly on the radius and on bucket borders,
// duplicates, field edges and strays outside the field, degenerate cell
// sizes, and radii from negative through zero to larger than the field.
func TestNeighborsMatchWithin2(t *testing.T) {
	radii := []float64{-1, 0, 2.5, 3, 5 - 1e-9, 5, 10, 1e3}

	f := NewField(50, 50)
	uniform := UniformDeploy(f, 400, stats.NewRNG(4))
	for _, cell := range []float64{0.5, 3, 10, 100} {
		idx := NewIndex(f, uniform, cell)
		for _, r := range radii {
			requireRowsEqualWithin2(t, "uniform", idx, r)
		}
	}

	corpora := []struct {
		name  string
		field Field
		cell  float64
		pts   []Point
	}{
		{"field-edges", NewField(12, 12), 4, []Point{
			{0, 0}, {12, 0}, {0, 12}, {12, 12}, {6, 0}, {6, 12}, {0, 6}, {12, 6}}},
		{"strays", NewField(12, 12), 4, []Point{{-2, 5}, {14, 5}, {6, 6}, {-2, 5.5}}},
		{"bucket-borders", NewField(20, 20), 5, []Point{
			{5, 10}, {10, 10}, {15, 10}, {10, 5}, {10, 15}, {7.5, 10}, {12.5, 10}}},
		{"on-the-radius", NewField(20, 20), 3, []Point{
			{10, 10}, {13, 10}, {10, 7}, {7, 10}, {10, 13}, {12.5, 10}, {15, 10}}},
		{"duplicates", NewField(10, 10), 3, []Point{
			{5, 5}, {5, 5}, {5, 5}, {8, 5}, {8, 5}, {0, 0}}},
		{"empty", NewField(10, 10), 1, nil},
		{"single", NewField(10, 10), 1, []Point{{3, 3}}},
	}
	for _, c := range corpora {
		idx := NewIndex(c.field, c.pts, c.cell)
		for _, r := range radii {
			requireRowsEqualWithin2(t, c.name, idx, r)
		}
	}

	small := NewField(10, 10)
	pts := UniformDeploy(small, 60, stats.NewRNG(9))
	for _, cell := range []float64{0, -1, -1e9, 1e6} {
		idx := NewIndex(small, pts, cell)
		for _, r := range radii {
			requireRowsEqualWithin2(t, "degenerate-cell", idx, r)
		}
	}
}

// TestNeighborsBuildAllocations pins the layout: the table is its header
// and three flat arrays, however many points and pairs it holds.
func TestNeighborsBuildAllocations(t *testing.T) {
	f := NewField(50, 50)
	idx := NewIndex(f, UniformDeploy(f, 800, stats.NewRNG(2)), 3)
	if n := testing.AllocsPerRun(5, func() { idx.Neighbors(3) }); n > 4 {
		t.Fatalf("building the table allocates %.0f objects, want the header and three arrays", n)
	}
}
