// Chaos detection suite: proves every scripted fault class actually
// fires against the simulator, that PEAS keeps its invariants under
// fault load, and that chaos campaigns are reproducible. Lives in an
// external test package because the oracle imports experiment.
package experiment_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"peas/internal/chaos"
	"peas/internal/checkpoint"
	"peas/internal/experiment"
	"peas/internal/node"
	"peas/internal/oracle"
)

func chaosConfig(n int, seed int64, horizon float64, plan *chaos.Plan) experiment.RunConfig {
	return experiment.RunConfig{
		Network: node.DefaultConfig(n, seed),
		Horizon: horizon,
		// The plan is the only fault source; the runner's own §5.2
		// injector stays off.
		FailuresPer5000s: 0,
		Chaos:            plan,
	}
}

// runUnderOracle runs cfg with the invariant oracle armed and fails the
// test on any violation, dropped ones included.
func runUnderOracle(t *testing.T, what string, cfg experiment.RunConfig) *experiment.RunStats {
	t.Helper()
	var chk *oracle.Checker
	cfg.OnNetwork = func(net *node.Network) { chk = oracle.Attach(net, oracle.DefaultConfig()) }
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := chk.Err(); err != nil {
		t.Errorf("%s: invariant oracle: %v", what, err)
	}
	if chk.Dropped() > 0 {
		t.Errorf("%s: oracle dropped %d violations", what, chk.Dropped())
	}
	return res
}

// TestMixedPlanExercisesEveryClassUnderOracle runs the mixed plan against
// a fault-free baseline of the same deployment (120 nodes, seed 7), both
// under the oracle,
// and holds the chaos run to the §5.2 envelope: PEAS degrades gracefully
// rather than collapsing. At 2000 s neither run's coverage drops, so only
// the 8000 s row, which requires both to drop, can fail the lifetime
// bound.
func TestMixedPlanExercisesEveryClassUnderOracle(t *testing.T) {
	const n, seed = 120, 7
	for _, c := range []struct {
		horizon    float64
		mustExpire bool // both runs' 1-coverage must drop before the horizon
	}{
		{2000, false},
		{8000, true},
	} {
		t.Run(fmt.Sprintf("%.0fs", c.horizon), func(t *testing.T) {
			plan := chaos.MixedPlan(c.horizon, seed)
			base := runUnderOracle(t, "baseline", chaosConfig(n, seed, c.horizon, nil))
			res := runUnderOracle(t, "chaos", chaosConfig(n, seed, c.horizon, plan))
			t.Logf("chaos vs baseline: initial 1-coverage %.4f vs %.4f, mean working %.1f vs %.1f, 1-coverage lifetime %.0f s vs %.0f s (dropped %v/%v)",
				res.InitialCoverage[0], base.InitialCoverage[0], res.MeanWorking, base.MeanWorking,
				res.CoverageLifetime[0], base.CoverageLifetime[0], res.CoverageDropped[0], base.CoverageDropped[0])

			if missing := chaos.Unexercised(plan.Classes(), res.Chaos); len(missing) > 0 {
				t.Errorf("fault classes never fired: %v (counters: %v)", missing, res.Chaos)
			}
			// Graceful degradation, not collapse: the network still boots
			// to near full sensing coverage with the mixed plan active, and
			// keeps it for at least half as long as it does without faults.
			if res.InitialCoverage[0] < 0.9 {
				t.Errorf("initial 1-coverage %.3f under chaos; expected near-full", res.InitialCoverage[0])
			}
			if res.InitialCoverage[0] < 0.9*base.InitialCoverage[0] {
				t.Errorf("initial 1-coverage %.4f fell below 90%% of baseline %.4f",
					res.InitialCoverage[0], base.InitialCoverage[0])
			}
			if res.CoverageLifetime[0] < 0.5*base.CoverageLifetime[0] {
				t.Errorf("1-coverage lifetime collapsed: %.0f s vs baseline %.0f s",
					res.CoverageLifetime[0], base.CoverageLifetime[0])
			}
			if c.mustExpire && !(res.CoverageDropped[0] && base.CoverageDropped[0]) {
				t.Errorf("1-coverage dropped %v under chaos, %v in the baseline; the lifetime bound needs both",
					res.CoverageDropped[0], base.CoverageDropped[0])
			}
		})
	}
}

// TestChaosCampaignDeterminism runs each mixed-plan campaign twice: the
// final state must be a pure function of plan and seed. On amd64 each
// row's final StateHash, engine event count and fault counters must also
// equal the committed values, so a change to how the controller strikes
// nodes cannot move a campaign's trajectory unnoticed. Together the rows
// exercise both rate-driven node classes the mixed plan carries.
func TestChaosCampaignDeterminism(t *testing.T) {
	for _, c := range []struct {
		n       int
		seed    int64
		horizon float64
		hash    string
		events  uint64
		chaos   map[string]uint64
	}{
		{80, 11, 1200, "cca193f6aa59329d33b3ce80a3b22ce71e7758b4f54063a094dce56faeba437c", 3727, map[string]uint64{
			"crash": 1, "delay": 41, "drop.burst": 21, "drop.loss": 19, "drop.partition": 94, "dup": 54,
			"fail.recover": 3, "recovered": 3, "reorder": 54, "restarted": 1,
		}},
		{120, 7, 2000, "26e81a8c1b3e9cf9ddd25f4be70b999d43d5230e81386514c1fd3009bc27b5b0", 7680, map[string]uint64{
			"crash": 1, "delay": 71, "drop.burst": 65, "drop.loss": 94, "drop.partition": 132, "dup": 109,
			"fail.recover": 1, "fail.stop": 3, "recovered": 1, "reorder": 109, "restarted": 1,
		}},
	} {
		run := func() *experiment.RunStats {
			cfg := chaosConfig(c.n, c.seed, c.horizon, chaos.MixedPlan(c.horizon, c.seed))
			cfg.CaptureFinal = true
			res, err := experiment.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		hash := a.FinalState.StateHashHex()
		if other := b.FinalState.StateHashHex(); hash != other {
			t.Errorf("n=%d seed=%d: same plan + seed produced different final state hashes:\n  %s\n  %s", c.n, c.seed, hash, other)
		}
		t.Logf("n=%d seed=%d: hash %s, %d events, counters %v", c.n, c.seed, hash, a.EngineEvents, a.Chaos)
		if runtime.GOARCH != "amd64" {
			continue
		}
		if hash != c.hash {
			t.Errorf("n=%d seed=%d: final hash %s, committed %s", c.n, c.seed, hash, c.hash)
		}
		if a.EngineEvents != c.events {
			t.Errorf("n=%d seed=%d: %d engine events, committed %d", c.n, c.seed, a.EngineEvents, c.events)
		}
		if !reflect.DeepEqual(a.Chaos, c.chaos) {
			t.Errorf("n=%d seed=%d: fault counters %v, committed %v", c.n, c.seed, a.Chaos, c.chaos)
		}
	}
}

func TestChaosRejectsCheckpointCombinations(t *testing.T) {
	plan := chaos.MixedPlan(1000, 1)
	resume := chaosConfig(40, 1, 1000, plan)
	resume.Resume = &checkpoint.Snapshot{Net: node.DefaultConfig(40, 1)}
	if _, err := experiment.Run(resume); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Errorf("Chaos+Resume: err = %v, want resume rejection", err)
	}
	periodic := chaosConfig(40, 1, 1000, plan)
	periodic.CheckpointEvery = 100
	periodic.OnCheckpoint = func(*checkpoint.Snapshot) bool { return false }
	if _, err := experiment.Run(periodic); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("Chaos+CheckpointEvery: err = %v, want checkpoint rejection", err)
	}
}

func TestCrashRestartResumesPinnedSimNode(t *testing.T) {
	victim := 3
	plan := &chaos.Plan{
		Name: "pinned-crash",
		Seed: 5,
		Events: []chaos.Event{
			{Class: chaos.CrashRestart, At: 600, Downtime: 50, Victim: &victim},
		},
	}
	res := runUnderOracle(t, "crash-restart", chaosConfig(60, 5, 1500, plan))
	if got := res.Chaos[chaos.CtrCrash]; got != 1 {
		t.Errorf("crash counter = %d, want 1", got)
	}
	// restarted increments only when ReviveFrom accepts the checkpoint —
	// the node rebooted with its pre-crash protocol state.
	if got := res.Chaos[chaos.CtrRestarted]; got != 1 {
		t.Errorf("restarted counter = %d, want 1 (checkpoint resume failed?)", got)
	}
}

// TestRateDrivenCrashRestartRuns runs crash-restart as a Poisson arrival
// process over a window, as the plan grammar allows for every node class:
// the run completes under the oracle and the victims resume from their
// pre-crash state.
func TestRateDrivenCrashRestartRuns(t *testing.T) {
	plan := &chaos.Plan{
		Name: "crash-restart-rate",
		Seed: 5,
		Events: []chaos.Event{
			{Class: chaos.CrashRestart, At: 50, Until: 500, Rate: 200, Downtime: 50},
		},
	}
	res := runUnderOracle(t, "crash-restart", chaosConfig(60, 5, 1500, plan))
	crashes, restarts := res.Chaos[chaos.CtrCrash], res.Chaos[chaos.CtrRestarted]
	t.Logf("%d crashes, %d restarts", crashes, restarts)
	if crashes < 2 {
		t.Errorf("crash counter = %d, want several arrivals", crashes)
	}
	if restarts == 0 || restarts > crashes {
		t.Errorf("restarted counter = %d for %d crashes", restarts, crashes)
	}
}
