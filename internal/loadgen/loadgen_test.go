package loadgen

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"peas/internal/durable"
	"peas/internal/jobqueue"
	"peas/internal/server"
)

// TestPlanDeterminism is the reproducibility acceptance criterion:
// planning the same Mix twice yields the identical submitted key
// multiset (same hash, same per-item keys in order), and a different
// seed yields a different one.
func TestPlanDeterminism(t *testing.T) {
	mix := Mix{Seed: 42, Jobs: 60, DuplicateRatio: 0.3, FollowFraction: 0.5, ChaosFraction: 0.2, LongJobs: 2}
	a, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 62 {
		t.Fatalf("plan sizes %d vs %d, want 62", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("item %d: key %s vs %s — plan not seed-deterministic", i, a[i].Key, b[i].Key)
		}
		if a[i].Follow != b[i].Follow || a[i].Duplicate != b[i].Duplicate || a[i].Arrival != b[i].Arrival {
			t.Fatalf("item %d: flags/arrival differ across identical plans", i)
		}
	}
	if KeyMultisetHash(a) != KeyMultisetHash(b) {
		t.Fatal("key multiset hashes differ for identical mixes")
	}

	other, err := Plan(Mix{Seed: 43, Jobs: 60, DuplicateRatio: 0.3, FollowFraction: 0.5, ChaosFraction: 0.2, LongJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if KeyMultisetHash(a) == KeyMultisetHash(other) {
		t.Fatal("different seeds produced the same key multiset")
	}
}

// TestPlanShape checks the synthesized workload's structural
// invariants: the duplicate count tracks the configured ratio, long
// jobs are distinct chaos-free drain victims at the plan tail, and
// arrivals are non-decreasing.
func TestPlanShape(t *testing.T) {
	mix := Mix{Seed: 7, Jobs: 400, DuplicateRatio: 0.35, ChaosFraction: 0.25, LongJobs: 3}
	items, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}

	dups := planDuplicates(items)
	rate := float64(dups) / float64(mix.Jobs)
	if rate < 0.25 || rate > 0.45 {
		t.Errorf("planned duplicate rate %.3f far from configured 0.35", rate)
	}
	if got := mix.Jobs - distinctKeys(items[:mix.Jobs]); got != dups {
		t.Errorf("duplicate submissions %d but only %d repeated keys", dups, got)
	}

	seenLong := make(map[string]struct{})
	for i, it := range items {
		if i > 0 && it.Arrival < items[i-1].Arrival {
			t.Fatalf("item %d arrives before item %d", i, i-1)
		}
		if !it.Long {
			continue
		}
		if i < mix.Jobs {
			t.Errorf("long job at index %d, before the plan tail", i)
		}
		if it.Spec.Chaos != nil {
			t.Error("long job carries a chaos plan; it could not checkpoint-suspend")
		}
		if it.Spec.Horizon != 600000 {
			t.Errorf("long job horizon %v, want 1000x default (600000)", it.Spec.Horizon)
		}
		if it.Spec.Network.N != 2000 {
			t.Errorf("long job N %d, want 50x default (2000)", it.Spec.Network.N)
		}
		if _, dup := seenLong[it.Key]; dup {
			t.Error("long jobs must have distinct keys")
		}
		seenLong[it.Key] = struct{}{}
	}
	if len(seenLong) != mix.LongJobs {
		t.Errorf("%d long jobs, want %d", len(seenLong), mix.LongJobs)
	}
}

func TestHashLedgerDetectsDivergence(t *testing.T) {
	l := newHashLedger()
	if !l.observe("k1", "aa", false) || !l.observe("k1", "aa", true) {
		t.Fatal("matching hashes flagged as divergent")
	}
	if l.observe("k1", "bb", false) {
		t.Fatal("divergent hash not flagged")
	}
	if !l.observe("k2", "", false) {
		t.Fatal("empty hash must be ignored")
	}
	keys, mismatches, resumed := l.stats()
	if keys != 1 || mismatches != 1 || resumed != 1 {
		t.Fatalf("stats = (%d,%d,%d), want (1,1,1)", keys, mismatches, resumed)
	}
	if _, ok := l.hashFor("k2"); ok {
		t.Fatal("ignored empty hash was recorded")
	}
}

// startService boots a real pool + HTTP server for the load generator
// to drive, returning its base URL.
func startService(t *testing.T, cfg jobqueue.Config) string {
	t.Helper()
	pool := jobqueue.New(cfg)
	pool.Start()
	ts := httptest.NewServer(server.New(pool, cfg.Workers))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := pool.Shutdown(ctx); err != nil {
			t.Errorf("pool did not drain cleanly: %v", err)
		}
	})
	return ts.URL
}

// TestRunClosedLoop drives a live service with a mixed closed-loop
// workload and checks the report end to end: every job reaches done,
// the observed coalesce+cache rate matches the planned duplicate rate
// exactly (the cache is big enough that no duplicate misses), the
// hashes agree across fresh/cached/coalesced paths, and the evaluated
// report passes its SLO.
func TestRunClosedLoop(t *testing.T) {
	url := startService(t, jobqueue.Config{Workers: 4, QueueDepth: 64, CacheCap: 256})

	cfg := Config{
		Mix:         Mix{Seed: 1234, Jobs: 24, DuplicateRatio: 0.4, FollowFraction: 0.5, ChaosFraction: 0.2},
		Mode:        ModeClosed,
		Concurrency: 6,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := Run(ctx, url, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Submitted != 24 || rep.Done != 24 {
		t.Fatalf("submitted=%d done=%d, want 24/24", rep.Submitted, rep.Done)
	}
	if got := rep.Coalesced + rep.Cached; got != rep.PlannedDuplicates {
		t.Errorf("coalesced+cached = %d, want exactly %d planned duplicates", got, rep.PlannedDuplicates)
	}
	if rep.HashMismatches != 0 || rep.HashedKeys != rep.DistinctKeys {
		t.Errorf("hashes: %d mismatches over %d keys (plan has %d distinct)",
			rep.HashMismatches, rep.HashedKeys, rep.DistinctKeys)
	}
	requirePass(t, rep, rep.Assertions)

	// Reproducibility over the wire: a second run of the same mix
	// reports the identical key multiset hash.
	items, err := Plan(cfg.Mix)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeyMultisetHash != KeyMultisetHash(items) {
		t.Error("report's key multiset hash differs from a re-planned one")
	}
}

// TestRunOpenLoop exercises the fixed-arrival-rate mode: arrivals are
// paced by the plan's seeded Poisson offsets, and the run still
// converges to all-done with consistent hashes.
func TestRunOpenLoop(t *testing.T) {
	url := startService(t, jobqueue.Config{Workers: 4, QueueDepth: 64, CacheCap: 256})

	cfg := Config{
		Mix:  Mix{Seed: 99, Jobs: 16, DuplicateRatio: 0.25, FollowFraction: 0.25, RateHz: 200},
		Mode: ModeOpen,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := Run(ctx, url, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeOpen {
		t.Fatalf("mode %q, want open", rep.Mode)
	}
	if rep.Submitted != 16 || rep.Done != 16 {
		t.Fatalf("submitted=%d done=%d, want 16/16", rep.Submitted, rep.Done)
	}
	if rep.HashMismatches != 0 {
		t.Errorf("hash mismatches: %d", rep.HashMismatches)
	}
	requirePass(t, rep, rep.Assertions)
}

// TestReportEvaluate pins the SLO gate logic itself: lost jobs and
// duplicate-rate drift each flip Pass.
func TestReportEvaluate(t *testing.T) {
	base := Report{
		Submitted: 10, Done: 10,
		PlannedDuplicateRate: 0.3, ObservedDuplicateRate: 0.3,
	}

	r := base
	r.evaluate(SLO{})
	if !r.Pass {
		t.Errorf("clean report failed: %+v", r.Assertions)
	}

	r = base
	r.TimedOut = 1
	r.evaluate(SLO{})
	if r.Pass {
		t.Error("timed-out job did not fail zero-lost-jobs")
	}

	r = base
	r.Suspended = 1
	r.evaluate(SLO{AllowSuspended: true})
	if !r.Pass {
		t.Errorf("suspended job failed despite AllowSuspended: %+v", r.Assertions)
	}
	r = base
	r.Suspended = 1
	r.evaluate(SLO{})
	if r.Pass {
		t.Error("suspended job passed without AllowSuspended")
	}

	r = base
	r.ObservedDuplicateRate = 0.4
	r.evaluate(SLO{DuplicateRateTolerance: 0.05})
	if r.Pass {
		t.Error("0.1 duplicate-rate drift passed a 0.05 tolerance")
	}
}

// TestSoakAccountingHelpers pins the two things both soaks count the
// same way: an unresolved key is reported once however many plan items
// share it, and a state-dir census sees durable-write temporaries but not
// the quarantine directory.
func TestSoakAccountingHelpers(t *testing.T) {
	items := []Item{{Key: "lost"}, {Key: "lost", Duplicate: true}, {Key: "done"}}
	ledger := newHashLedger()
	ledger.observe("done", "h", false)
	if got := unresolvedKeys(items, ledger); got != 1 {
		t.Errorf("unresolvedKeys = %d, want 1 (one distinct key without a hash)", got)
	}

	dir := t.TempDir()
	for _, name := range []string{"a.spec.json", "b.spec.json", "a.ckpt", "b.ckpt.tmp", "quarantine/c.spec.json"} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if specs, ckpts, tmps := censusStateDir(dir); specs != 2 || ckpts != 1 || tmps != 1 {
		t.Errorf("census = %d specs, %d ckpts, %d tmps; want 2, 1, 1", specs, ckpts, tmps)
	}
	// The log's live and parked records count as specs: d and e are
	// admitted and d retired, g and i are parked, h's claim consumes i,
	// and the torn last frame counts as nothing.
	var log []byte
	for _, rec := range []string{`{"id":"d"}`, `{"id":"e"}`, `{"retired":"d"}`, `{"id":"g","parked":true}`,
		`{"id":"i","parked":true}`, `{"id":"h","claims":"i"}`, `{"id":"f"}`} {
		log = append(log, durable.Frame([]byte(rec))...)
	}
	if err := os.WriteFile(filepath.Join(dir, "admissions.log"), log[:len(log)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if specs, _, _ := censusStateDir(dir); specs != 5 {
		t.Errorf("census with a log = %d specs, want 5 (two spec files; e, g and h in the log)", specs)
	}
}
