package baseline

import (
	"testing"
)

func TestSyncSleepExtendsLifetime(t *testing.T) {
	cfg := DefaultConfig(480, 5)
	cfg.Horizon = 40000
	res := SyncSleep(cfg)
	// With ~3-4 members per 3 m cell, rotation should deliver roughly
	// that multiple of a single battery life.
	if res.CoverageLifetime < 6000 {
		t.Errorf("SyncSleep lifetime = %v, want well beyond one battery life",
			res.CoverageLifetime)
	}
	if res.Wakeups == 0 {
		t.Error("no synchronized wakeups recorded")
	}
	if res.TotalConsumed <= 0 {
		t.Error("no energy consumed")
	}
}

func TestSyncSleepGapsUnderFailures(t *testing.T) {
	cfg := DefaultConfig(480, 7)
	cfg.FailureRate = 32.0 / 5000
	cfg.Horizon = 15000
	res := SyncSleep(cfg)
	if res.Gaps.Count == 0 {
		t.Fatal("no gaps under failures — the Figure 4 problem should appear")
	}
	// Gaps end only at round boundaries: mean gap is about half a round.
	if res.Gaps.MeanDuration < cfg.RoundLength*0.2 || res.Gaps.MeanDuration > cfg.RoundLength {
		t.Errorf("mean gap %v vs round length %v", res.Gaps.MeanDuration, cfg.RoundLength)
	}
	if res.Gaps.MaxDuration > cfg.RoundLength {
		t.Errorf("gap %v longer than a round %v", res.Gaps.MaxDuration, cfg.RoundLength)
	}
	if res.Gaps.MeanDuration*float64(res.Gaps.Count) != res.Gaps.TotalDuration {
		t.Error("gap stats inconsistent")
	}
}

func TestSyncSleepNoFailuresNoMidRoundGaps(t *testing.T) {
	cfg := DefaultConfig(480, 9)
	cfg.Horizon = 4000 // before any depletion (first worker dies ≥4500 s)
	res := SyncSleep(cfg)
	if res.Gaps.Count != 0 {
		t.Errorf("%d gaps without failures before depletion", res.Gaps.Count)
	}
}

func TestSyncSleepDeterminism(t *testing.T) {
	a := SyncSleep(DefaultConfig(200, 11))
	b := SyncSleep(DefaultConfig(200, 11))
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSyncSleepEmptyCellsHandled(t *testing.T) {
	cfg := DefaultConfig(5, 13) // 5 nodes over ~278 cells
	cfg.Horizon = 2000
	res := SyncSleep(cfg)
	if res.CoverageLifetime <= 0 {
		t.Errorf("lifetime = %v", res.CoverageLifetime)
	}
}
