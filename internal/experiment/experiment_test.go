package experiment

import (
	"fmt"
	"strings"
	"testing"

	"peas/internal/node"
)

// fastOptions shrinks sweeps so harness tests stay quick while still
// exercising the full pipeline.
func fastOptions() Options {
	return Options{
		Runs:         1,
		Seed:         3,
		Deployments:  []int{160, 320},
		FailureRates: []float64{5.33, 48},
		FailureNodes: 240,
		Forwarding:   true,
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := RunConfig{
		Network:          node.DefaultConfig(120, 5),
		FailuresPer5000s: BaseFailuresPer5000,
		Horizon:          2000,
		Forwarding:       true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// RunStats contains a map (chaos counters), so compare via formatting.
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("same config diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := RunConfig{Network: node.DefaultConfig(0, 1)}
	if _, err := Run(cfg); err == nil {
		t.Error("want error for empty network")
	}
}

func TestDefaultHorizonScalesWithDeployment(t *testing.T) {
	if DefaultHorizon(800) <= DefaultHorizon(160) {
		t.Error("horizon must grow with deployment size")
	}
	// Long enough for a 160-node network to exhaust itself (~7000 s).
	if DefaultHorizon(160) < 8000 {
		t.Errorf("horizon(160) = %v too short", DefaultHorizon(160))
	}
}

func TestDeploymentSweepShape(t *testing.T) {
	res, err := DeploymentSweep(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	small, large := res.Points[0], res.Points[1]
	// The headline claim: more nodes, longer life (Figs. 9-10).
	if large.CoverageLifetime[3] <= small.CoverageLifetime[3] {
		t.Errorf("4-coverage lifetime did not grow: %v -> %v",
			small.CoverageLifetime[3], large.CoverageLifetime[3])
	}
	if large.DeliveryLifetime <= small.DeliveryLifetime {
		t.Errorf("delivery lifetime did not grow: %v -> %v",
			small.DeliveryLifetime, large.DeliveryLifetime)
	}
	// Fig. 11: wakeups grow with deployment.
	if large.Wakeups <= small.Wakeups {
		t.Errorf("wakeups did not grow: %v -> %v", small.Wakeups, large.Wakeups)
	}
	// Table 1: overhead below 1%.
	for _, p := range res.Points {
		if p.OverheadRatio <= 0 || p.OverheadRatio > 0.01 {
			t.Errorf("overhead ratio %v at n=%d outside (0, 1%%]", p.OverheadRatio, p.N)
		}
	}
	// Tables render with one row per point.
	for _, tbl := range []*Table{res.Fig9(), res.Fig10(), res.Fig11(), res.Table1()} {
		if len(tbl.Rows) != len(res.Points) {
			t.Errorf("%q has %d rows", tbl.Caption, len(tbl.Rows))
		}
		if !strings.Contains(tbl.String(), "160") {
			t.Errorf("%q output missing deployment size", tbl.Caption)
		}
	}
}

func TestFailureSweepShape(t *testing.T) {
	res, err := FailureSweep(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	calm, harsh := res.Points[0], res.Points[1]
	// §5.3: the failed fraction approaches the paper's ~38-42% at rate 48.
	if harsh.FailedFraction < 0.25 || harsh.FailedFraction > 0.55 {
		t.Errorf("failed fraction at max rate = %v", harsh.FailedFraction)
	}
	// Robustness: lifetime degrades, but not catastrophically (>50%).
	if harsh.CoverageLifetime[3] >= calm.CoverageLifetime[3] {
		t.Logf("note: harsh lifetime %v >= calm %v (seeds can do this at small scale)",
			harsh.CoverageLifetime[3], calm.CoverageLifetime[3])
	}
	if harsh.CoverageLifetime[3] < calm.CoverageLifetime[3]/2 {
		t.Errorf("coverage lifetime collapsed: %v -> %v",
			calm.CoverageLifetime[3], harsh.CoverageLifetime[3])
	}
	// Fig. 14: fewer sleepers at higher failure rates -> fewer wakeups.
	if harsh.Wakeups >= calm.Wakeups {
		t.Errorf("wakeups did not decrease: %v -> %v", calm.Wakeups, harsh.Wakeups)
	}
	for _, tbl := range []*Table{res.Fig12(), res.Fig13(), res.Fig14()} {
		if len(tbl.Rows) != len(res.Points) {
			t.Errorf("%q has %d rows", tbl.Caption, len(tbl.Rows))
		}
	}
}

func TestEstimatorStudyAccuracyImprovesWithK(t *testing.T) {
	tbl := runExperiment(t, quickEnv(0), "estimator")
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Column 1 is the mean relative error; it must decrease from k=4 to
	// k=64.
	var first, last float64
	if _, err := sscan(tbl.Rows[0][1], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tbl.Rows[len(tbl.Rows)-1][1], &last); err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("estimator error did not shrink with k: %v -> %v", first, last)
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.normalize()
	d := DefaultOptions()
	if o.Runs != d.Runs || o.Seed != d.Seed || len(o.Deployments) != len(d.Deployments) ||
		len(o.FailureRates) != len(d.FailureRates) || o.FailureNodes != d.FailureNodes {
		t.Errorf("normalize: %+v", o)
	}
}

func TestDerivedSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for p := 0; p < 10; p++ {
		for r := 0; r < 10; r++ {
			s := derivedSeed(1, p, r)
			if seen[s] {
				t.Fatalf("duplicate seed for point %d run %d", p, r)
			}
			seen[s] = true
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Caption: "cap",
		Headers: []string{"a", "longer"},
	}
	tbl.AddRow("1", "2")
	tbl.AddNote("hello %d", 5)
	out := tbl.String()
	for _, want := range []string{"cap", "a", "longer", "1", "2", "note: hello 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTurnoffStudyReducesWorkers(t *testing.T) {
	tbl := runExperiment(t, quickEnv(0), "turnoff")
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var off, on float64
	if _, err := sscan(tbl.Rows[0][1], &off); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tbl.Rows[1][1], &on); err != nil {
		t.Fatal(err)
	}
	if on >= off {
		t.Errorf("turn-off did not reduce the working set: %v -> %v", off, on)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("percentile sorted the caller's slice")
	}
}

// sscan parses a single float from a table cell.
func sscan(cell string, out *float64) (int, error) {
	return fmt.Sscan(strings.TrimSuffix(cell, "%"), out)
}
