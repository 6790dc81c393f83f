package experiment

import (
	"fmt"

	"peas/internal/node"
	"peas/internal/stats"
)

// irregularityStudy reproduces §4's attenuation-irregularity claim:
// "working nodes in areas with poorer signal reception can be denser than
// those in other areas. We believe that this is desirable because it is
// only with more working nodes in such areas that the same level of
// robustness is maintained."
//
// For each irregularity degree, the study correlates each working node's
// local reception quality with the local working density: a negative
// correlation confirms poor-reception areas end up denser.
func irregularityStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "§4: signal-attenuation irregularity vs. worker placement (480 nodes, t=800 s)",
		Headers: []string{"irregularity", "mean-working", "corr(quality, density)", "density poor/good"},
	}
	type result struct{ workers, corr, ratio float64 }
	degrees := []float64{0, 0.2, 0.4}
	grid, err := runGrid(len(degrees), 3, e.Parallel, func(c, r int) (result, error) {
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 980, r))
		cfg.Radio.Irregularity = degrees[c]
		net, err := node.NewNetwork(cfg)
		if err != nil {
			return result{}, err
		}
		net.Start()
		net.Run(800)
		res := result{workers: float64(net.WorkingCount())}
		if degrees[c] > 0 {
			res.corr, res.ratio = qualityDensityCorrelation(net)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for c, irr := range degrees {
		corrCell, ratioCell := "n/a", "n/a"
		if irr > 0 {
			corrCell = ffloat(meanOver(grid[c], func(r result) float64 { return r.corr }))
			ratioCell = fmt.Sprintf("%.2f", meanOver(grid[c], func(r result) float64 { return r.ratio }))
		}
		t.AddRow(fmt.Sprintf("%.1f", irr),
			fmt.Sprintf("%.1f", meanOver(grid[c], func(r result) float64 { return r.workers })),
			corrCell, ratioCell)
	}
	t.AddNote("negative correlation (and a poor/good density ratio above 1) " +
		"confirms the paper's prediction: poorer reception shrinks the " +
		"effective probing range, so PEAS keeps more workers there")
	return t, nil
}

// qualityDensityCorrelation computes, over the working nodes, the Pearson
// correlation between each worker's area reception quality and the number
// of other workers within Rp; it also returns the mean local density of
// workers in below-median-quality areas divided by that of the rest.
func qualityDensityCorrelation(net *node.Network) (corr, poorGoodRatio float64) {
	working := net.WorkingPositions()
	if len(working) < 4 {
		return 0, 1
	}
	rp := net.Config().Protocol.ProbingRange
	var quals, density []float64
	for _, p := range working {
		quals = append(quals, net.Medium.QualityAt(p))
		count := 0
		for _, q := range working {
			if p != q && p.Dist(q) <= 2*rp {
				count++
			}
		}
		density = append(density, float64(count))
	}
	corr = stats.PearsonR(quals, density)

	med := stats.Summarize(quals).Median
	var poor, good []float64
	for i, q := range quals {
		if q < med {
			poor = append(poor, density[i])
		} else {
			good = append(good, density[i])
		}
	}
	gm := stats.Mean(good)
	if gm == 0 {
		return corr, 1
	}
	return corr, stats.Mean(poor) / gm
}
