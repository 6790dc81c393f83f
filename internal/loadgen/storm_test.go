package loadgen

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"peas/internal/client"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
)

// TestPlanStormShape pins the structural invariants of a plan with the
// cancellation-storm knobs turned on: cancels are drawn only from
// unambiguous candidates, a hang item's seed names no other job (the
// storm's executor picks the jobs to hang by seed), and the whole thing
// stays seed-deterministic down to the cancel timings.
func TestPlanStormShape(t *testing.T) {
	mix := Mix{
		Seed: 11, Jobs: 200, DuplicateRatio: 0.3,
		CancelFraction: 0.5, HangJobs: 2, DeadlineJobs: 2, LongJobs: 1,
	}
	items, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 205 {
		t.Fatalf("plan size %d, want 205 (200 normal + 2 hang + 2 deadline + 1 long)", len(items))
	}

	for i, it := range items {
		if it.Cancel {
			if it.Duplicate {
				t.Errorf("item %d: duplicate drawn as cancel candidate (outcome would be ambiguous)", i)
			}
			if it.Hang || it.Deadline > 0 {
				t.Errorf("item %d: hang or deadline item drawn as cancel candidate", i)
			}
			if it.CancelAfter < 0 || it.CancelAfter >= 200*time.Millisecond {
				t.Errorf("item %d: cancel delay %v outside [0, 200ms)", i, it.CancelAfter)
			}
		}
		if it.Deadline > 0 {
			if it.Spec.DeadlineSeconds != it.Deadline {
				t.Errorf("item %d: Deadline %v but Spec.DeadlineSeconds %v", i, it.Deadline, it.Spec.DeadlineSeconds)
			}
			if it.Spec.Chaos != nil {
				t.Errorf("item %d: deadline job carries a chaos plan; it could not park a checkpoint", i)
			}
		}
	}
	if got := planHangJobs(items); got != 2 {
		t.Errorf("planned hang jobs %d, want 2", got)
	}
	seeds := make(map[int64]int)
	for _, it := range items {
		if !it.Duplicate {
			seeds[it.Spec.Network.Seed]++
		}
	}
	for seed := range hangSeeds(items) {
		if seeds[seed] != 1 {
			t.Errorf("hang seed %d names another job too", seed)
		}
	}
	if got := planDeadlineJobs(items); got != 2 {
		t.Errorf("planned deadline jobs %d, want 2", got)
	}

	// The draw rate should track the knob over the candidate population
	// (non-duplicate normal items plus long items).
	candidates := mix.Jobs - planDuplicates(items) + mix.LongJobs
	rate := float64(planCancels(items)) / float64(candidates)
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("cancel draw rate %.3f over %d candidates, far from configured 0.5", rate, candidates)
	}

	// Determinism extends to the cancel choices and timings.
	again, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	if KeyMultisetHash(items) != KeyMultisetHash(again) {
		t.Fatal("storm plans with identical mixes diverge in key multiset")
	}
	for i := range items {
		if items[i].Cancel != again[i].Cancel || items[i].CancelAfter != again[i].CancelAfter {
			t.Fatalf("item %d: cancel draw differs across identical plans", i)
		}
	}
}

// TestRunCancellationStorm is the end-to-end robustness gate of this
// package: a closed-loop workload where a seeded fraction of jobs is
// cancelled at random lifecycle points while the plan's hang jobs wedge
// workers (the service's executor hangs on their seeds) and
// unmeetable-deadline jobs demand enforcement — all at
// once, against one live service. The SLO asserts full accounting
// (every planned cancel lands cancelled or raced-to-done, every hang is
// watchdog-preempted, every deadline is enforced), bit-exact hashes for
// everything that completed, and a service left clean: no orphaned
// workers, no goroutine growth.
func TestRunCancellationStorm(t *testing.T) {
	cfg := Config{
		Mix: Mix{
			Seed: 777, Jobs: 30, DuplicateRatio: 0.2, FollowFraction: 0.3,
			CancelFraction: 0.4, HangJobs: 3, DeadlineJobs: 2, LongJobs: 2,
		},
		Mode:        ModeClosed,
		Concurrency: 8,
		// Cancels perturb the observed duplicate rate (a duplicate of a
		// cancelled key re-admits as accepted, resuming the parked
		// checkpoint), so the rate assertion is disabled; the hash ledger
		// still gates correctness.
		SLO: SLO{CheckLeaks: true, DuplicateRateTolerance: 1.0},
	}
	items, err := Plan(cfg.Mix)
	if err != nil {
		t.Fatal(err)
	}
	// The stall window must sit comfortably above the slowest legitimate
	// inter-beat gap — the big long-job deployments take hundreds of
	// milliseconds to set up under the race detector — while staying
	// small enough that hung workers are reclaimed within the test
	// budget. Truly hung jobs show zero beats, so 2s is still decisive.
	url := startService(t, jobqueue.Config{
		Workers: 4, QueueDepth: 64, CacheCap: 256,
		StateDir: t.TempDir(), CheckpointEvery: 200,
		StallWindow: 2 * time.Second,
		Run:         hangOn(hangSeeds(items)),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	rep, err := Run(ctx, url, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.PlannedCancels == 0 {
		t.Fatal("storm plan drew no cancels; the seed/knob combination is broken")
	}
	if rep.PlannedHangJobs != 3 || rep.PlannedDeadlineJobs != 2 {
		t.Fatalf("planned hang=%d deadline=%d, want 3/2", rep.PlannedHangJobs, rep.PlannedDeadlineJobs)
	}

	// Full cancellation accounting: nothing planned goes missing.
	if rep.Cancelled+rep.CancelRacedDone != rep.PlannedCancels {
		t.Errorf("cancelled=%d + racedDone=%d, want %d planned cancels (collateral=%d)",
			rep.Cancelled, rep.CancelRacedDone, rep.PlannedCancels, rep.CancelCollateral)
	}
	if rep.HangPreempted != rep.PlannedHangJobs {
		t.Errorf("hangPreempted=%d, want %d", rep.HangPreempted, rep.PlannedHangJobs)
	}
	if rep.DeadlineExceeded+rep.DeadlineRejected != rep.PlannedDeadlineJobs {
		t.Errorf("deadlineExceeded=%d + rejected=%d, want %d", rep.DeadlineExceeded, rep.DeadlineRejected, rep.PlannedDeadlineJobs)
	}
	if rep.Failed != 0 {
		t.Errorf("unexpected plain failures: %d", rep.Failed)
	}
	if rep.HashMismatches != 0 {
		t.Errorf("hash mismatches under cancellation: %d", rep.HashMismatches)
	}

	// The service came out the other side clean.
	if rep.FinalInFlight != 0 || rep.FinalQueueDepth != 0 {
		t.Errorf("post-storm inFlight=%d queueDepth=%d, want 0/0", rep.FinalInFlight, rep.FinalQueueDepth)
	}
	// The server's own witness: a legitimate slow job falsely preempted
	// would raise this count without touching the client-side tally.
	page, err := client.New(url).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(page, "peas_watchdog_preemptions"); got != uint64(rep.PlannedHangJobs) {
		t.Errorf("peas_watchdog_preemptions = %d, want %d planned hang jobs", got, rep.PlannedHangJobs)
	}
	requirePass(t, rep, rep.Assertions)
}

// hangSeeds returns the network seeds of the plan's hang items.
func hangSeeds(items []Item) map[int64]bool {
	seeds := make(map[int64]bool)
	for _, it := range items {
		if it.Hang {
			seeds[it.Spec.Network.Seed] = true
		}
	}
	return seeds
}

// hangOn returns an executor that runs every spec except those whose
// network seed is in seeds. Those wedge: no event progress, so the
// engine's heartbeat never moves, until their supervisor is stopped, and
// then a preemption with nothing captured.
func hangOn(seeds map[int64]bool) jobqueue.RunFunc {
	return func(cfg experiment.RunConfig) (*experiment.RunStats, error) {
		if !seeds[cfg.Network.Seed] {
			return experiment.Run(cfg)
		}
		for !cfg.Supervisor.Stop.Load() {
			time.Sleep(time.Millisecond)
		}
		return &experiment.RunStats{Preempted: true}, nil
	}
}

// metric returns the value of the unlabelled series name on a /metrics
// page, 0 when the page does not carry it (a counter never bumped).
func metric(page, name string) uint64 {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}
