package experiment

import (
	"peas/internal/node"
)

// deviationStudy ablates each deviation this implementation makes from a
// literal reading of the paper (DESIGN.md §5), demonstrating why each is
// load-bearing: the row reverts exactly one deviation and re-measures the
// 4-coverage lifetime and the steady working set on the 480-node setup.
func deviationStudy(e *Env) (*Table, error) {
	t := &Table{
		Caption: "DESIGN.md §5 ablation: revert one deviation at a time (480 nodes)",
		Headers: []string{"variant", "4-cov lifetime(s)", "mean-working", "wakeups"},
	}
	variants := []struct {
		name   string
		mutate func(*node.Config)
	}{
		{"as-shipped", func(*node.Config) {}},
		{"stale λ̂ (paper-literal estimator)", func(c *node.Config) {
			c.Protocol.StaleEstimates = true
		}},
		{"no carrier sense", func(c *node.Config) {
			c.Radio.CSMAEnabled = false
		}},
		{"no §4 turn-off", func(c *node.Config) {
			c.Protocol.TurnoffEnabled = false
		}},
	}
	pts, err := sweep(len(variants), 2, e.Parallel, func(v, r int) RunConfig {
		cfg := node.DefaultConfig(480, derivedSeed(e.Seed, 995+v, r))
		variants[v].mutate(&cfg)
		return RunConfig{Network: cfg, FailuresPer5000s: BaseFailuresPer5000}
	})
	if err != nil {
		return nil, err
	}
	for v, pt := range pts {
		t.AddRow(variants[v].name, fsec(pt.CoverageLifetime[3]), fsec(pt.MeanWorking), fsec(pt.Wakeups))
	}
	t.AddNote("stale λ̂ collapses the lifetime to one battery generation " +
		"(sleepers spiral into near-infinite sleep and never replace dead " +
		"workers); no-CSMA and no-turn-off inflate the working set and burn " +
		"the deployment early")
	return t, nil
}
