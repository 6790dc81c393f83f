package experiment

import (
	"fmt"

	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/sensing"
	"peas/internal/stats"
)

// trackingStudy measures end-to-end sensing quality — the application
// metric behind the paper's coverage arguments — with mobile targets
// roaming the field. It sweeps the §2.2.1 tolerance knob λd: the paper's
// animal-tracking example sets λd = 1/300 s⁻¹ to accept monitoring
// interruptions up to 5 minutes. Undetected intervals (exposures) should
// track ≈1/λd once workers start dying and being replaced.
//
// The deployment is deliberately lean (240 nodes, 5 m detection range)
// and the run crosses the first depletion wave, so replacement gaps
// actually show up in the detection record.
func trackingStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "Application view: mobile-target tracking vs. λd (240 nodes, 5 m detection, t=9000 s)",
		Headers: []string{"λd (1/s)", "tolerance 1/λd", "detected-frac", "exposures", "mean-gap(s)", "max-gap(s)"},
	}
	for i, lambdaD := range []float64{0.02, 1.0 / 150, 1.0 / 300} {
		rep, err := trackingRun(derivedSeed(e.Seed, 990, i), lambdaD)
		if err != nil {
			return nil, err
		}
		t.AddRow(ffloat(lambdaD), fmt.Sprintf("%.0f s", 1/lambdaD),
			ffloat(rep.DetectedFraction), fmt.Sprint(rep.Exposures),
			ffloat(rep.MeanExposure), ffloat(rep.MaxExposure))
	}
	t.AddNote("§2.2.1: the application picks λd from its interruption " +
		"tolerance; lower λd probes (and spends) less but leaves longer " +
		"undetected intervals when workers die")
	return t, nil
}

func trackingRun(seed int64, lambdaD float64) (sensing.Report, error) {
	cfg := node.DefaultConfig(240, seed)
	cfg.Protocol.DesiredRate = lambdaD
	net, err := node.NewNetwork(cfg)
	if err != nil {
		return sensing.Report{}, err
	}
	inj := newInjector(net, 16)
	const detectRange = 5.0
	tracker := sensing.NewTracker(cfg.Field, detectRange, 4, 1.5, stats.NewRNG(seed^0x7e57))
	var posBuf []geom.Point
	net.Engine.NewTicker(5, func() {
		posBuf = net.AppendWorkingPositions(posBuf[:0])
		tracker.Observe(net.Engine.Now(), posBuf)
	})
	net.Start()
	inj.Start()
	net.Run(9000)
	return tracker.Report(), nil
}
