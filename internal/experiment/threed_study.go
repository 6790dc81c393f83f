package experiment

import (
	"fmt"
	"math"
	"slices"

	"peas/internal/geom3"
	"peas/internal/stats"
)

// threeDStudy exercises the paper's §3 footnote — "the model applies to
// three-dimensional as well" — by running the probing rule in a volume:
// nodes wake sequentially (the regime the §3 analysis assumes), start
// working iff no worker is within Rp, and we measure the resulting
// working set's separation, volumetric 1-coverage at the sensing range,
// and connectivity at the transmitting range.
//
// The 2-D bound (1+√5)·Rp is specific to the planar grid argument, so
// the 3-D table reports the measured max nearest-worker distance for
// comparison rather than asserting the planar constant.
func threeDStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§3 footnote: the probing rule in 3-D (25x25x25 m, Rp = 3 m, Rs = Rt = 10 m)",
		Headers: []string{"nodes", "working", "min-pair(m)", "max-nearest(m)", "1-coverage", "connected@10m"},
	}
	box := geom3.NewBox(25, 25, 25)
	for _, n := range []int{500, 1000, 2000} {
		res := threeDRun(box, n, derivedSeed(e.Seed, 1200, n))
		t.AddRow(fmt.Sprint(n), fmt.Sprint(res.working),
			fmt.Sprintf("%.2f", res.minPair), fmt.Sprintf("%.2f", res.maxNearest),
			ffloat(res.coverage), fmt.Sprint(res.connected))
	}
	t.AddNote("sequential ideal probing, as in the §3 model; in 3-D the same " +
		"rule yields Rp-separated workers whose 10 m balls cover the volume " +
		"and whose graph is connected at the 10 m transmitting range")
	return t, nil
}

type threeDResult struct {
	working    int
	minPair    float64
	maxNearest float64
	coverage   float64
	connected  bool
}

// threeDRun applies the probing rule sequentially to a random wake order:
// exactly the random sequential adsorption process PEAS's Probing
// Environment realizes under an ideal channel.
func threeDRun(box geom3.Box, n int, seed int64) threeDResult {
	rng := stats.NewRNG(seed)
	const (
		rp = 3.0
		rs = 10.0
		rt = 10.0
	)
	pts := geom3.UniformDeploy(box, n, rng)
	order := rng.Perm(n)
	var working []geom3.Point
	for _, i := range order {
		ok := true
		for _, w := range working {
			if pts[i].Dist(w) <= rp {
				ok = false
				break
			}
		}
		if ok {
			working = append(working, pts[i])
		}
	}

	res := threeDResult{working: len(working), minPair: math.Inf(1)}
	// Pairwise separation and nearest-worker distances.
	nearest := make([]float64, len(working))
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	for i := range working {
		for j := i + 1; j < len(working); j++ {
			d := working[i].Dist(working[j])
			if d < res.minPair {
				res.minPair = d
			}
			if d < nearest[i] {
				nearest[i] = d
			}
			if d < nearest[j] {
				nearest[j] = d
			}
		}
	}
	for _, d := range nearest {
		if d > res.maxNearest {
			res.maxNearest = d
		}
	}

	// Volumetric 1-coverage on a 2.5 m lattice.
	total, covered := 0, 0
	for x := 0.0; x <= box.Width; x += 2.5 {
		for y := 0.0; y <= box.Height; y += 2.5 {
			for z := 0.0; z <= box.Depth; z += 2.5 {
				total++
				p := geom3.Point{X: x, Y: y, Z: z}
				if slices.ContainsFunc(working, func(w geom3.Point) bool { return p.Dist(w) <= rs }) {
					covered++
				}
			}
		}
	}
	if total > 0 {
		res.coverage = float64(covered) / float64(total)
	}

	// Connectivity at Rt via union-find.
	uf := stats.NewUnionFind(len(working))
	for i := range working {
		for j := i + 1; j < len(working); j++ {
			if working[i].Dist(working[j]) <= rt {
				uf.Union(i, j)
			}
		}
	}
	res.connected = len(working) > 0 && uf.Components() == 1
	return res
}
