package experiment

import (
	"testing"

	"peas/internal/node"
	"peas/internal/trace"
)

func TestRunHooks(t *testing.T) {
	recorder := trace.NewRecorder(0)
	samples := 0
	var lastWorking int
	finished := false
	cfg := RunConfig{
		Network: node.DefaultConfig(60, 51),
		Horizon: 300,
		Trace:   recorder,
		OnSample: func(ts float64, working int, byK []float64) {
			samples++
			lastWorking = working
			if len(byK) != MaxCoverageK {
				t.Errorf("byK has %d entries", len(byK))
			}
		},
		OnFinish: func(net *node.Network) {
			finished = true
			if net.Engine.Now() != 300 {
				t.Errorf("OnFinish at t=%v", net.Engine.Now())
			}
		},
	}
	rs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One sample at t=0 plus one per CoverageInterval.
	want := 1 + int(300/CoverageInterval)
	if samples != want {
		t.Errorf("samples = %d, want %d", samples, want)
	}
	if lastWorking <= 0 {
		t.Error("no working nodes in final sample")
	}
	if !finished {
		t.Error("OnFinish not called")
	}
	if recorder.Len() == 0 {
		t.Error("trace recorder captured nothing")
	}
	if s := recorder.Summarize(); s.ByKind[trace.KindState] == 0 {
		t.Error("no state events traced")
	}
	if rs.Wakeups == 0 {
		t.Error("run produced no wakeups")
	}
}

// TestRunTraceChainsAllDeadStop verifies that death observers do not break
// the runner's early exit once the network is exhausted, whether they
// subscribe before its liveness count (RunConfig.Trace) or after it
// (OnNetwork).
func TestRunTraceChainsAllDeadStop(t *testing.T) {
	config := func() RunConfig {
		return RunConfig{
			Network:          node.DefaultConfig(30, 53),
			FailuresPer5000s: 5000 * 10, // ~10 failures/s: exhausts quickly
			Horizon:          5000,
		}
	}
	plain, err := Run(config())
	if err != nil {
		t.Fatal(err)
	}
	if plain.AllDeadAt >= 5000 {
		t.Fatalf("network should exhaust early, AllDeadAt=%v", plain.AllDeadAt)
	}
	before, after := trace.NewRecorder(0), trace.NewRecorder(0)
	cfg := config()
	cfg.Trace = before
	cfg.OnNetwork = func(net *node.Network) { trace.Attach(after, net) }
	rs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.AllDeadAt != plain.AllDeadAt {
		t.Errorf("AllDeadAt = %v with recorders subscribed, %v without", rs.AllDeadAt, plain.AllDeadAt)
	}
	for name, r := range map[string]*trace.Recorder{"before": before, "after": after} {
		if deaths := r.Summarize().ByKind[trace.KindDeath]; deaths != 30 {
			t.Errorf("recorder subscribed %s the liveness count saw %d deaths, want 30", name, deaths)
		}
	}
}
