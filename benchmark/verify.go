package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"peas"
	"peas/internal/stats"
)

// Sampling rates of the after-the-clock re-execution checks.
const (
	resampleSim     = 10 // direct runs: re-run 1 in 10, require the same witness
	resampleService = 16 // jobs: run 1 in 16 in this process, require the same witness
)

// digest folds the witnesses of results, in plan order, into one SHA-256.
// It covers the end-state hash and the exact counters and nothing that
// depends on the service (job IDs, spec key version), so a direct run and
// a job of the same spec contribute the same bytes.
func digest(results []opResult) string {
	h := sha256.New()
	for i := range results {
		w := &results[i].witness
		fmt.Fprintf(h, "%s %d %d %d %d\n", w.Hash, w.Events, w.Packets, w.Wakeups, w.Samples)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// golden is benchmark/golden.json: each workload's digest at the declared
// run length, for one seed.
type golden struct {
	Seed    int64                  `json:"seed"`
	Seconds float64                `json:"seconds"`
	Digests map[string]goldenEntry `json:"digests"`
}

type goldenEntry struct {
	Ops    int    `json:"ops"`
	SHA256 string `json:"sha256"`
}

func goldenPath(root string) string { return filepath.Join(root, "benchmark", "golden.json") }

func loadGolden(root string) (*golden, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("benchmark/golden.json: %w", err)
	}
	return &g, nil
}

// verify applies the correctness gate to an untraced run; every miss is
// counted in res.FailedOps.
func (b *bench) verify(w *workload, ops []op, ph *phase, res *result) {
	// 1. Golden digest (seed and run length of the committed file only; a
	// smoke run changes the inputs).
	res.Digest, res.DigestOps, res.Golden = digest(ph.results), len(ph.results), "n/a"
	if g, err := loadGolden(b.root); err == nil && !b.smoke && !b.regolden && g.Seed == b.seed && g.Seconds == b.seconds {
		want, ok := g.Digests[w.name]
		switch {
		case !ok:
			res.Golden = "n/a"
		case want.Ops == res.DigestOps && want.SHA256 == res.Digest:
			res.Golden = "match"
		default:
			res.Golden = "mismatch"
			res.fail(1, "golden digest mismatch: got %s over %d ops, want %s over %d", res.Digest, res.DigestOps, want.SHA256, want.Ops)
		}
	}

	// 2. Re-execute a seeded sample in this process. For direct runs this
	// is the determinism check; for jobs it checks the service against the
	// library. Repeated specs (service_cached) are checked once.
	every, cadence := resampleSim, 0.0
	if w.service {
		every, cadence = resampleService, poolCheckpointEvery
	}
	rng := stats.NewRNG(b.seed ^ int64(len(ph.results)))
	seen := map[string]bool{}
	for i := range ph.results {
		r := &ph.results[i]
		pick := rng.Intn(every) == 0 || (i == len(ph.results)-1 && res.Resampled == 0)
		if !pick || r.err != "" || seen[ops[i].key] {
			continue
		}
		seen[ops[i].key] = true
		res.Resampled++
		again, err := simulate(peas.Run, ops[i].spec, cadence)
		if err != nil {
			res.fail(1, "re-running op %d: %v", i, err)
		} else if again.witness != r.witness {
			res.fail(1, "op %d: witness %+v, re-run gives %+v", i, r.witness, again.witness)
		}
	}

	// 3. Paper fidelity (sim_protocol at full size): the mean 3-coverage
	// lifetime grows with the deployment and 800 nodes live 4-6x as long as
	// 160 (EXPERIMENTS.md Fig. 9 measures 5.2x).
	if w.name == "sim_protocol" && !b.smoke {
		sumBy, nBy := map[int]float64{}, map[int]float64{}
		for i := range ph.results {
			if ph.results[i].err == "" {
				n := ops[i].spec.Network.N
				sumBy[n] += ph.results[i].lifetime3
				nBy[n]++
			}
		}
		prev := 0.0
		for _, n := range deployments {
			mean := ratio(sumBy[n], nBy[n])
			if mean <= prev {
				res.fail(1, "fidelity: mean 3-coverage lifetime %.0f s at N=%d is not above %.0f s at the previous size", mean, n, prev)
			}
			prev = mean
		}
		lo, hi := deployments[0], deployments[len(deployments)-1]
		if r := ratio(ratio(sumBy[hi], nBy[hi]), ratio(sumBy[lo], nBy[lo])); r < 4 || r > 6 {
			res.fail(1, "fidelity: lifetime(%d)/lifetime(%d) = %.2f, outside [4, 6]", hi, lo, r)
		}
	}
}
