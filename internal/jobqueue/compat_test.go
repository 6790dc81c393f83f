package jobqueue

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRecoverParentStateDir recovers a state dir written by an earlier
// version of the store (testdata/compat/statedir-v1, see its README): a
// parked pair, a drain-suspended pair, a queued spec and a spec of a
// retired kind. Every later store must boot it to the recorded states,
// counters and final StateHashes; the fixture is never regenerated.
func TestRecoverParentStateDir(t *testing.T) {
	const src = "testdata/compat/statedir-v1"
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
	recorded := map[int64]string{
		61: "549aa5cde9f725e905894acc85d2eeebea7ef65b70495cc08779940e11b0c6d6",
		62: "f66e4f1bc17586e42d07af28dde7a47a67c93ee7a09f1b2cbf0993c69fc5fe2e",
		63: "8664318d19217edf27283f75f53cb53fcd6e310467683a13509d2f96050f2883",
	}
	wantHash := func(seed int64) string {
		if runtime.GOARCH == "amd64" {
			return recorded[seed]
		}
		return directHash(t, spec(seed))
	}

	pool, n := recoverInto(t, dir, 4)
	if n != 2 {
		t.Fatalf("recovered %d jobs, want the suspended and the queued one", n)
	}
	for name, want := range map[string]uint64{
		"jobs_recovered": 2, "jobs_parked_recovered": 1, "jobs_quarantined": 1,
		"checkpoints_quarantined": 0, "tmp_files_swept": 0, "jobs_recovered_dup": 0,
	} {
		if got := pool.Counters().Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "j-000004.spec.json")); err != nil {
		t.Errorf("retired-kind spec not quarantined: %v", err)
	}
	if _, ok := pool.Get("j-000001"); ok {
		t.Error("the parked pair came back as a job; it must only be claimable")
	}
	for _, tc := range []struct {
		id      string
		seed    int64
		resumed bool
	}{{"j-000002", 62, true}, {"j-000003", 63, false}} {
		j, ok := pool.Get(tc.id)
		if !ok {
			t.Fatalf("%s not recovered", tc.id)
		}
		if st := j.State(); st != StateQueued {
			t.Fatalf("%s recovered as %s, want queued", tc.id, st)
		}
		if (j.resume != nil) != tc.resumed {
			t.Errorf("%s resumes from a checkpoint: %v, want %v", tc.id, j.resume != nil, tc.resumed)
		}
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
	for _, tc := range []struct {
		id      string
		seed    int64
		resumed bool
	}{{"j-000002", 62, true}, {"j-000003", 63, false}} {
		j, _ := pool.Get(tc.id)
		check(j, tc.seed, tc.resumed)
	}
	// The parked pair is claimed by a resubmission of its spec, under a
	// fresh ID past every ID the directory held.
	j, outcome, err := pool.Submit(spec(61))
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("claiming the parked pair: %v, %v", outcome, err)
	}
	if j.ID != "j-000005" {
		t.Errorf("claim admitted as %s, want j-000005", j.ID)
	}
	check(j, 61, true)
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
}
