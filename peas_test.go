package peas_test

import (
	"strings"
	"testing"

	"peas"
)

func TestDefaultConfigsMatchPaper(t *testing.T) {
	p := peas.DefaultProtocolConfig()
	if p.ProbingRange != 3 || p.InitialRate != 0.1 || p.DesiredRate != 0.02 ||
		p.EstimatorK != 32 || p.NumProbes != 3 || p.ProbeWindow != 0.1 ||
		p.PacketSize != 25 {
		t.Errorf("protocol defaults diverge from the paper: %+v", p)
	}
	n := peas.DefaultNetworkConfig(480, 1)
	if n.Field.Width != 50 || n.Field.Height != 50 || n.N != 480 {
		t.Errorf("network defaults: %+v", n)
	}
	if n.InitialEnergyMin != 54 || n.InitialEnergyMax != 60 {
		t.Errorf("battery range: %+v", n)
	}
	if n.Radio.BitsPerSecond != 20000 || n.Radio.MaxRange != 10 {
		t.Errorf("radio defaults: %+v", n.Radio)
	}
	r := peas.DefaultRunConfig(160, 1)
	if r.FailuresPer5000s != 10.66 || !r.Forwarding {
		t.Errorf("run defaults: %+v", r)
	}
}

func TestPublicRun(t *testing.T) {
	cfg := peas.DefaultRunConfig(160, 11)
	cfg.Horizon = 1200
	res, err := peas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanWorking <= 0 || res.Wakeups == 0 {
		t.Errorf("implausible results: %+v", res)
	}
	if res.InitialCoverage[0] < 0.9 {
		t.Errorf("1-coverage after boot = %v", res.InitialCoverage[0])
	}
}

func TestPublicNetwork(t *testing.T) {
	net, err := peas.NewNetwork(peas.DefaultNetworkConfig(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	net.Run(400)
	if net.WorkingCount() == 0 || net.AliveCount() != 60 {
		t.Errorf("working=%d alive=%d", net.WorkingCount(), net.AliveCount())
	}
	// State constants are usable through the facade.
	for _, n := range net.Nodes {
		switch n.State() {
		case peas.Sleeping, peas.Probing, peas.Working, peas.Dead:
		default:
			t.Fatalf("unknown state %v", n.State())
		}
	}
}

func TestPublicStudies(t *testing.T) {
	env := &peas.ExperimentEnv{Options: peas.DefaultSweepOptions(), Quick: true}
	want := map[string]string{"estimator": "k", "loss": "loss-rate"}
	for _, e := range peas.Experiments() {
		header, ok := want[e.ID]
		if !ok {
			continue
		}
		delete(want, e.ID)
		tbl, err := e.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !strings.Contains(tbl.String(), header) {
			t.Errorf("%s study output empty", e.ID)
		}
	}
	if len(want) != 0 {
		t.Errorf("experiments missing from the public index: %v", want)
	}
}

func TestPublicSweepOptions(t *testing.T) {
	opts := peas.DefaultSweepOptions()
	if opts.Runs != 5 || len(opts.Deployments) != 5 || len(opts.FailureRates) != 9 {
		t.Errorf("paper sweep options: %+v", opts)
	}
}

func TestFacadeTraceAndRender(t *testing.T) {
	rec := peas.NewTraceRecorder(100)
	cfg := peas.DefaultRunConfig(40, 5)
	cfg.Horizon = 200
	cfg.Forwarding = false
	cfg.Trace = rec
	var svg, ascii string
	cfg.OnFinish = func(net *peas.Network) {
		ascii = peas.RenderASCII(net, 5)
		var b strings.Builder
		if err := peas.RenderSVG(&b, net, peas.SVGOptions{SensingRange: 10}); err != nil {
			t.Error(err)
		}
		svg = b.String()
	}
	if _, err := peas.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("trace empty")
	}
	if !strings.Contains(ascii, "W") || !strings.Contains(svg, "<svg") {
		t.Error("renders empty")
	}
}
