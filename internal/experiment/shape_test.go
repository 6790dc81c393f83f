package experiment

import "testing"

func TestShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	opts := DefaultOptions()
	opts.Runs = 1
	opts.Forwarding = true
	env := &Env{Options: opts}
	for _, id := range []string{"fig9", "fig10", "fig11", "table1"} {
		t.Logf("\n%s", runExperiment(t, env, id))
	}
}
