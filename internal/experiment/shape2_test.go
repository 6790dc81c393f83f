package experiment

import "testing"

func TestShapeFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	opts := DefaultOptions()
	opts.Runs = 1
	opts.FailureRates = []float64{5.33, 16, 26.66, 37.33, 48}
	env := &Env{Options: opts}
	for _, id := range []string{"fig12", "fig13", "fig14"} {
		t.Logf("\n%s", runExperiment(t, env, id))
	}
}
