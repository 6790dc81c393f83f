package jobqueue

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestRecoverParentStateDir recovers state dirs written by earlier
// versions of the store (testdata/compat/statedir-*, see each README).
// Every later store must boot each to the recorded queued jobs, parks,
// counters, quarantined files and next ID, and run them to the recorded
// final StateHashes; a fixture is never regenerated.
func TestRecoverParentStateDir(t *testing.T) {
	type queued struct {
		id      string
		seed    int64
		resumed bool
	}
	for _, fx := range []struct {
		name     string
		queued   []queued          // the recovered jobs, in admission order
		counters map[string]uint64 // Recover's counters
		// quarantined is what Recover sets aside under quarantine/.
		quarantined []string
		// parked is the seed of the one parked pair, claimed by a
		// resubmission under the ID claim.
		parked int64
		claim  string
		hashes map[int64]string // amd64
	}{{
		// The one-file-per-job store: a parked pair, a drain-suspended
		// pair, a queued spec and a spec of a retired kind.
		name:        "statedir-v1",
		queued:      []queued{{"j-000002", 62, true}, {"j-000003", 63, false}},
		counters:    map[string]uint64{"jobs_recovered": 2, "jobs_parked_recovered": 1, "jobs_quarantined": 1},
		quarantined: []string{"j-000004.spec.json"},
		parked:      61, claim: "j-000005",
		hashes: map[int64]string{
			61: "549aa5cde9f725e905894acc85d2eeebea7ef65b70495cc08779940e11b0c6d6",
			62: "f66e4f1bc17586e42d07af28dde7a47a67c93ee7a09f1b2cbf0993c69fc5fe2e",
			63: "8664318d19217edf27283f75f53cb53fcd6e310467683a13509d2f96050f2883",
		},
	}, {
		// The admission log with parked spec files: a retired admission,
		// a parked pair, a drain-suspended and a queued admission, the ID
		// high-water mark and a torn last frame.
		name:        "statedir-v2",
		queued:      []queued{{"j-000003", 67, true}, {"j-000004", 68, false}},
		counters:    map[string]uint64{"jobs_recovered": 2, "jobs_parked_recovered": 1, "tmp_files_swept": 1},
		quarantined: []string{"admissions.log.6fc394aa.torn"},
		parked:      66, claim: "j-000006",
		hashes: map[int64]string{
			66: "8267c08f695bfb6f4840951306b745312d3c3a27c48e77a5e58ff4fc6298a8d5",
			67: "ac640feda9fb752bff1b3b5c9b267cc6d17b54b0a27f36767931b0bff0568f2d",
			68: "ff622525d5b7ff9bca013a5ff43e72854a038e99483c6240bf17916c9dcb3c83",
		},
	}, {
		// The one record stream: a retired admission, a park, a
		// drain-suspended admission, a queued claim of a second park, the
		// ID high-water mark and a torn last frame.
		name:        "statedir-v3",
		queued:      []queued{{"j-000004", 78, true}, {"j-000005", 77, true}},
		counters:    map[string]uint64{"jobs_recovered": 2, "jobs_parked_recovered": 1, "tmp_files_swept": 1},
		quarantined: []string{"admissions.log.5b348fce.torn"},
		parked:      76, claim: "j-000007",
		hashes: map[int64]string{
			76: "cb2c8c8ee083dce817ecf7667f263805c5d2c2b9577634092a0beee14aae7ea8",
			77: "cb99ef6739057fbd7ef8e4c3aa0f723d7c3eeb9278e57db1b2c3c97b2225a48f",
			78: "6a0c7adb810b6d0097de027efe90e9b8590bbbabd92fa2542e5357988b4b9cb9",
		},
	}} {
		t.Run(fx.name, func(t *testing.T) {
			src := filepath.Join("testdata/compat", fx.name)
			dir := t.TempDir()
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				if ent.Name() != "README.md" {
					copyFile(t, filepath.Join(src, ent.Name()), filepath.Join(dir, ent.Name()))
				}
			}
			spec := func(seed int64) *Spec {
				s := testSpec(seed)
				s.Horizon = 2000
				return s
			}
			wantHash := func(seed int64) string {
				if runtime.GOARCH == "amd64" {
					return fx.hashes[seed]
				}
				return directHash(t, spec(seed))
			}

			pool, n := recoverInto(t, dir, 4)
			if n != len(fx.queued) {
				t.Fatalf("recovered %d jobs, want %d", n, len(fx.queued))
			}
			for _, name := range []string{"jobs_recovered", "jobs_parked_recovered", "jobs_quarantined",
				"checkpoints_quarantined", "tmp_files_swept", "jobs_recovered_dup"} {
				if got := pool.Counters().Get(name); got != fx.counters[name] {
					t.Errorf("%s = %d, want %d", name, got, fx.counters[name])
				}
			}
			var got []string
			if q, err := os.ReadDir(filepath.Join(dir, QuarantineDir)); err == nil {
				for _, ent := range q {
					got = append(got, ent.Name())
				}
			}
			if !slices.Equal(got, fx.quarantined) {
				t.Errorf("quarantine holds %v, want %v", got, fx.quarantined)
			}
			var listed []string
			for _, j := range pool.Jobs() {
				listed = append(listed, j.ID)
			}
			for i, q := range fx.queued {
				if i >= len(listed) || listed[i] != q.id {
					t.Fatalf("job table %v, want the recovered jobs %v", listed, fx.queued)
				}
				j, _ := pool.Get(q.id)
				if st := j.State(); st != StateQueued {
					t.Fatalf("%s recovered as %s, want queued", q.id, st)
				}
				if (j.ckpt != "") != q.resumed {
					t.Errorf("%s resumes from a checkpoint: %v, want %v", q.id, j.ckpt != "", q.resumed)
				}
			}
			if len(listed) != len(fx.queued) {
				t.Errorf("job table %v, want only the recovered jobs; a park must only be claimable", listed)
			}

			pool.Start()
			defer pool.Shutdown(context.Background())
			check := func(j *Job, seed int64, resumed bool) {
				t.Helper()
				res := waitResult(t, j)
				if res.StateHash != wantHash(seed) || res.Resumed != resumed {
					t.Errorf("%s (seed %d): hash %s resumed %v, want %s resumed %v",
						j.ID, seed, res.StateHash, res.Resumed, wantHash(seed), resumed)
				}
			}
			for _, q := range fx.queued {
				j, _ := pool.Get(q.id)
				check(j, q.seed, q.resumed)
			}
			// The parked pair is claimed by a resubmission of its spec, under
			// a fresh ID past every ID the directory held.
			j, outcome, err := pool.Submit(spec(fx.parked))
			if err != nil || outcome != OutcomeAccepted {
				t.Fatalf("claiming the parked pair: %v, %v", outcome, err)
			}
			if j.ID != fx.claim {
				t.Errorf("claim admitted as %s, want %s", j.ID, fx.claim)
			}
			check(j, fx.parked, true)
			if got := pool.Counters().Get("parked_resumed"); got != 1 {
				t.Errorf("parked_resumed = %d, want 1", got)
			}

			if err := pool.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range left {
				if name := ent.Name(); strings.HasSuffix(name, ".spec.json") || strings.HasSuffix(name, ".ckpt") {
					t.Errorf("%s left in the state dir after every job finished", name)
				}
			}
		})
	}
}
