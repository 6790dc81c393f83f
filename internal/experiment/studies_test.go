package experiment

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// quickEnv is the environment of `peas-bench -quick -runs 1 -seed 1`.
func quickEnv(parallel int) *Env {
	opts := DefaultOptions()
	opts.Runs = 1
	opts.Parallel = parallel
	return &Env{Options: opts, Quick: true}
}

// runExperiment regenerates one table through the index.
func runExperiment(t *testing.T, env *Env, id string) *Table {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			tbl, err := e.Run(env)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return tbl
		}
	}
	t.Fatalf("no experiment %q in the index", id)
	return nil
}

// TestAllStudiesRender executes every experiment of the index end to end
// (so skipped with -short) and checks structural soundness of the
// rendered tables.
func TestAllStudiesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	env := quickEnv(0)
	seen := map[string]bool{}
	for _, e := range Experiments() {
		name := e.ID
		if seen[name] || e.Section == "" {
			t.Errorf("%s: duplicate id or empty section", name)
		}
		seen[name] = true
		// Sequential: the figures of one sweep share it through env.
		t.Run(name, func(t *testing.T) {
			tbl := runExperiment(t, env, name)
			if tbl.Caption == "" || len(tbl.Headers) == 0 {
				t.Fatalf("%s: empty table metadata", name)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: no rows", name)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) {
					t.Errorf("%s row %d has %d cells for %d headers",
						name, i, len(row), len(tbl.Headers))
				}
			}
			out := tbl.String()
			if !strings.Contains(out, tbl.Caption) {
				t.Errorf("%s: caption missing from output", name)
			}
			// Every study must render to CSV and JSON.
			var csvB, jsonB strings.Builder
			if err := tbl.WriteCSV(&csvB, true); err != nil {
				t.Errorf("%s csv: %v", name, err)
			}
			if err := tbl.WriteJSON(&jsonB); err != nil {
				t.Errorf("%s json: %v", name, err)
			}
		})
	}
}

// TestGoldenEvaluation pins every printed digit of the evaluation: the
// index, run in order at -quick -runs 1 -seed 1, must reproduce
// testdata/peas_bench_quick_runs1_seed1.golden byte for byte, sequentially
// and on all CPUs (which also puts the grid-driven studies under the race
// detector in CI's non -short race step). Regenerate the file with
//
//	go run ./cmd/peas-bench -quick -runs 1 -seed 1 \
//	  > internal/experiment/testdata/peas_bench_quick_runs1_seed1.golden
func TestGoldenEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation twice")
	}
	render := func(parallel int) string {
		env := quickEnv(parallel)
		var out strings.Builder
		for _, e := range Experiments() {
			fmt.Fprintln(&out, runExperiment(t, env, e.ID))
		}
		return out.String()
	}
	seq, par := render(1), render(0)
	if seq != par {
		t.Errorf("parallel output differs from sequential at %s", firstDiff(par, seq))
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden output is pinned on amd64; running on %s", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/peas_bench_quick_runs1_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if seq != string(want) {
		t.Errorf("output differs from the golden file at %s", firstDiff(seq, string(want)))
	}
}

// firstDiff locates the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: one side ends (got %d lines, want %d)", min(len(g), len(w))+1, len(g), len(w))
}

// TestGapStudyStructure runs the §2.1.1 comparison at one seed and
// verifies PEAS's gaps are shorter than synchronized sleeping's.
func TestGapStudyStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	tbl := runExperiment(t, quickEnv(0), "gaps")
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var peasGap, syncGap, peasN, syncN float64
	if _, err := sscan(tbl.Rows[0][1], &peasGap); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tbl.Rows[1][1], &syncGap); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tbl.Rows[0][3], &peasN); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tbl.Rows[1][3], &syncN); err != nil {
		t.Fatal(err)
	}
	if peasGap <= 0 || syncGap <= 0 {
		t.Skipf("no gaps observed at this seed: peas=%v sync=%v", peasGap, syncGap)
	}
	// Comparing raw mean gaps is outlier-dominated when one scheme has
	// far fewer gaps (a single long PEAS gap vs a dozen short sync ones);
	// the robust §2.1.1 claim is about total uncovered time, count × mean.
	if peasGap*peasN >= syncGap*syncN {
		t.Errorf("PEAS total dark time %.0f s (%v gaps of %v s) should beat synchronized sleeping %.0f s (%v gaps of %v s)",
			peasGap*peasN, peasN, peasGap, syncGap*syncN, syncN, syncGap)
	}
}
