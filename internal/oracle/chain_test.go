package oracle

// Differential test: checkpoint + resume at every boundary must land on
// the exact state the uninterrupted run reaches. VerifyChain carries the
// whole comparison; the tests here drive it over a failure-injecting,
// forwarding run and over the degenerate no-boundary case, and check
// that it refuses configs that would fight over the checkpoint hooks.

import (
	"strings"
	"testing"

	"peas/internal/experiment"
	"peas/internal/node"
)

func TestCheckpointChainBitExact(t *testing.T) {
	cfg := experiment.RunConfig{
		Network:          node.DefaultConfig(50, 11),
		FailuresPer5000s: 10,
		Horizon:          1500,
		Forwarding:       true,
	}
	res, err := VerifyChain(cfg, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boundaries < 3 {
		t.Fatalf("only %d checkpoint boundaries exercised, want >= 3", res.Boundaries)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.FinalHash == "" {
		t.Fatal("no final hash recorded")
	}
}

// TestCheckpointChainWithOracle resumes with the invariant checker
// attached to every segment: the resume path must tolerate observers the
// same way a fresh start does, and no segment may violate an invariant.
func TestCheckpointChainWithOracle(t *testing.T) {
	var checkers []*Checker
	cfg := experiment.RunConfig{
		Network: node.DefaultConfig(40, 23),
		Horizon: 1200,
		OnNetwork: func(net *node.Network) {
			checkers = append(checkers, Attach(net, DefaultConfig()))
		},
	}
	res, err := VerifyChain(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// One checker per run: the direct run plus one per resumed boundary.
	if want := 1 + res.Boundaries; len(checkers) != want {
		t.Errorf("OnNetwork ran %d times, want %d", len(checkers), want)
	}
	for i, c := range checkers {
		if err := c.Err(); err != nil {
			t.Errorf("segment %d: %v", i, err)
		}
	}
}

func TestVerifyChainRejectsCheckpointingConfig(t *testing.T) {
	cfg := experiment.RunConfig{
		Network:         node.DefaultConfig(10, 1),
		Horizon:         100,
		CheckpointEvery: 50,
	}
	if _, err := VerifyChain(cfg, 25); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("config with its own checkpoint hooks accepted: err=%v", err)
	}
}

// verifyMidRun is the chain's smallest form: one boundary at half the
// horizon, resumed through the codec, must end on the direct hash.
func verifyMidRun(t *testing.T, cfg experiment.RunConfig) {
	t.Helper()
	res, err := VerifyChain(cfg, cfg.Horizon/2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boundaries == 0 {
		t.Fatalf("no checkpoint captured before the %v s horizon", cfg.Horizon)
	}
	if err := res.Err(); err != nil {
		t.Error(err)
	}
}

// TestCheckpointResumeVerify is the checkpoint subsystem's acceptance
// criterion: for multiple seeds, a run resumed from a mid-run checkpoint
// pushed through the codec must end in bit-identical model state.
func TestCheckpointResumeVerify(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		verifyMidRun(t, experiment.RunConfig{
			Network:          node.DefaultConfig(40, seed),
			Horizon:          3000,
			FailuresPer5000s: 10,
			Forwarding:       true,
		})
	}
}

// TestCheckpointResumeVerifyIrregularRadio repeats the check under the
// harder physical layer: radio irregularity and random loss exercise the
// medium RNG and the quiescence deferral (CSMA backoffs in flight at the
// nominal capture time).
func TestCheckpointResumeVerifyIrregularRadio(t *testing.T) {
	net := node.DefaultConfig(120, 3)
	net.Radio.Irregularity = 0.5
	net.Radio.LossRate = 0.05
	verifyMidRun(t, experiment.RunConfig{Network: net, Horizon: 2600, FailuresPer5000s: 20, Forwarding: true})
}
