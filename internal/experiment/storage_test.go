// Run storage tests: a run built into the storage an earlier run released
// must be the run a fresh process makes. Lives in an external test package
// because the oracle imports experiment.
package experiment_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"peas/internal/chaos"
	"peas/internal/checkpoint"
	"peas/internal/experiment"
	"peas/internal/node"
	"peas/internal/oracle"
	"peas/internal/sim"
	"peas/internal/trace"
)

// afterOnSameStorage runs first and then second, and returns second's
// result; second must have been built into the storage first released.
func afterOnSameStorage(t *testing.T, first, second experiment.RunConfig) *experiment.RunStats {
	t.Helper()
	capture := func(cfg *experiment.RunConfig, into **node.Network) {
		hook := cfg.OnNetwork
		cfg.OnNetwork = func(net *node.Network) {
			*into = net
			if hook != nil {
				hook(net)
			}
		}
	}
	var a, b *node.Network
	capture(&first, &a)
	capture(&second, &b)
	if _, err := experiment.Run(first); err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(second)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || a != b {
		t.Fatal("the second run was not built into the storage the first released")
	}
	return res
}

// runFresh runs cfg on storage nothing ran on before.
func runFresh(t *testing.T, cfg experiment.RunConfig) *experiment.RunStats {
	t.Helper()
	experiment.FreshStorage(t)
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// statsJSON is RunStats as a job result carries it over the wire.
func statsJSON(t *testing.T, res *experiment.RunStats) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEngineFiguresDescribeTheRun: the engine figures in RunStats
// (EventStructs, HeapSlots, NearSlots) are the run's own high-water
// marks, not the storage's. A 40-node run after an 800-node one on the
// same storage reports, byte for byte, what it reports in a fresh process,
// though the storage it ran in was grown by the bigger run.
func TestEngineFiguresDescribeTheRun(t *testing.T) {
	big := experiment.RunConfig{Network: node.DefaultConfig(800, 3), Horizon: 1500, FailuresPer5000s: 10, Forwarding: true}
	small := experiment.RunConfig{Network: node.DefaultConfig(40, 4), Horizon: 1500, FailuresPer5000s: 10, Forwarding: true}
	want := statsJSON(t, runFresh(t, small))
	got := statsJSON(t, afterOnSameStorage(t, big, small))
	if !bytes.Equal(got, want) {
		t.Errorf("40-node run after an 800-node one on the same storage:\n%s\nin fresh storage:\n%s", got, want)
	}
	var st experiment.RunStats
	if err := json.Unmarshal(want, &st); err != nil {
		t.Fatal(err)
	}
	if st.EventStructs == 0 || st.HeapSlots == 0 || st.NearSlots == 0 {
		t.Errorf("engine figures missing from %s", want)
	}
}

// TestNothingCrossesRuns runs, on one storage, a run that leaves
// something behind — hooks, a fault injector, a trace, restored state, a
// schedule cut short — and then a plain TestGoldenDeterminism row, which
// must end exactly as in a fresh process: state hash, work counters and
// the whole of RunStats. The snapshots the first runs hand out must still
// hash the same after their storage has served the plain run: a snapshot
// owns its memory.
func TestNothingCrossesRuns(t *testing.T) {
	plain := experiment.RunConfig{
		Network:          node.DefaultConfig(320, 2),
		Horizon:          1200,
		FailuresPer5000s: experiment.BaseFailuresPer5000,
		Forwarding:       true,
		CaptureFinal:     true,
	}
	fresh := runFresh(t, plain)
	wantHash, wantJSON := fresh.FinalState.StateHashHex(), statsJSON(t, fresh)

	base := func(n int, seed int64) experiment.RunConfig {
		return experiment.RunConfig{
			Network:          node.DefaultConfig(n, seed),
			Horizon:          2000,
			FailuresPer5000s: 20,
			Forwarding:       true,
		}
	}
	// Each snapshot is hashed as it is handed out, to be hashed again once
	// its storage has served other runs. midRun, taken at a checkpoint
	// boundary, is also what the resumed case resumes from.
	var (
		midRun, preempted *checkpoint.Snapshot
		midHash, preHash  string
		checker           *oracle.Checker
	)
	{
		cfg := base(160, 8)
		cfg.CheckpointEvery = 700
		cfg.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
			midRun, midHash = s, s.StateHashHex()
			return true
		}
		if _, err := experiment.Run(cfg); err != nil {
			t.Fatal(err)
		}
		if midRun == nil {
			t.Fatal("no checkpoint captured")
		}
	}

	cases := []struct {
		name string
		cfg  func() experiment.RunConfig
	}{
		{"oracle", func() experiment.RunConfig {
			cfg := base(200, 5)
			cfg.OnNetwork = func(net *node.Network) { checker = oracle.Attach(net, oracle.DefaultConfig()) }
			return cfg
		}},
		{"chaos", func() experiment.RunConfig {
			cfg := base(240, 6)
			cfg.FailuresPer5000s = 0
			// Planned for twice the run, so channel impairments are
			// still on when the run ends.
			cfg.Chaos = chaos.MixedPlan(2*cfg.Horizon, 6)
			return cfg
		}},
		{"trace", func() experiment.RunConfig {
			cfg := base(120, 7)
			cfg.Trace = trace.NewRecorder(1 << 12)
			return cfg
		}},
		{"resumed", func() experiment.RunConfig {
			return experiment.RunConfig{Resume: midRun}
		}},
		{"preempted", func() experiment.RunConfig {
			cfg := base(480, 9)
			cfg.Supervisor = &sim.Supervisor{}
			cfg.OnPreempt = func(s *checkpoint.Snapshot) { preempted, preHash = s, s.StateHashHex() }
			cfg.OnSample = func(simT float64, _ int, _ []float64) {
				if simT >= 900 {
					cfg.Supervisor.Stop.Store(true)
				}
			}
			return cfg
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := afterOnSameStorage(t, c.cfg(), plain)
			if got := res.FinalState.StateHashHex(); got != wantHash {
				t.Errorf("final hash %s after a %s run on the same storage, %s in fresh storage", got, c.name, wantHash)
			}
			if got := statsJSON(t, res); !bytes.Equal(got, wantJSON) {
				t.Errorf("RunStats after a %s run on the same storage:\n%s\nin fresh storage:\n%s", c.name, got, wantJSON)
			}
		})
	}
	if checker == nil {
		t.Error("the oracle-armed run attached no oracle")
	} else if err := checker.Err(); err != nil {
		t.Errorf("the oracle-armed run: %v", err)
	}
	if preempted == nil {
		t.Fatal("the preempted run captured no snapshot")
	}
	for _, s := range []struct {
		name       string
		snap       *checkpoint.Snapshot
		whenHanded string
	}{{"OnCheckpoint", midRun, midHash}, {"OnPreempt", preempted, preHash}} {
		if got := s.snap.StateHashHex(); got != s.whenHanded {
			t.Errorf("%s snapshot hashes %s after its storage served another run, %s when handed out", s.name, got, s.whenHanded)
		}
	}
}
