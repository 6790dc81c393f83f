// Command benchmark is the PEAS benchmark declared by BENCHMARK.json at the
// repository root: five workloads (two direct-simulation sweeps at the
// paper's scale, three against a real peas-serve process), seven
// end-to-end metrics, and a separate traced run that attributes time and
// work to every layer from outside the program under test. See README.md.
//
// Run it through benchmark/run.sh from the repository root:
//
//	bash benchmark/run.sh --workload sim_protocol --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1                 # all workloads, untraced
//	bash benchmark/run.sh --seed 1 --trace 1       # all workloads, per-layer
//	bash benchmark/run.sh --compare a.json b.json  # two result files
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// declaration mirrors BENCHMARK.json, the one place workloads and metrics
// are named and given units, directions and bounds.
type declaration struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedWhy   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if d.RunSeconds <= 0 {
		return nil, errors.New("BENCHMARK.json: run_seconds must be positive")
	}
	return &d, nil
}

// metricsFor returns the declared metrics of a run kind.
func (d *declaration) metricsFor(traced bool) []metricDecl {
	if traced {
		return d.PerLayer
	}
	return d.EndToEnd
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root     = fs.String("root", ".", "repository root (holds BENCHMARK.json, go.mod and benchmark/)")
		name     = fs.String("workload", "", "run one workload (default: all five)")
		seed     = fs.Int64("seed", 1, "benchmark seed: every input is derived from it")
		seconds  = fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = fs.Bool("smoke", false, "shrink every count ~50x and every deployment 5x (seconds; no golden or fidelity check)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		regolden = fs.Bool("update-golden", false, "rewrite benchmark/golden.json from this run (untraced, all workloads)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	decl, err := loadDeclaration(*root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(decl, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if _, err := os.Stat(filepath.Join(*root, "cmd", "peas-serve")); err != nil {
		fmt.Fprintln(stderr, "benchmark: -root is not the repository root:", err)
		return 2
	}

	b := &bench{decl: decl, root: *root, outDir: filepath.Join(*root, "benchmark", "out"),
		seed: *seed, seconds: *seconds, smoke: *smoke, regolden: *regolden, sizeDiv: 1}
	if b.seconds <= 0 {
		b.seconds = float64(decl.RunSeconds)
		if b.smoke {
			b.seconds /= 50
		}
	}
	if b.smoke {
		b.sizeDiv = 5
	}
	b.scale = b.seconds / float64(decl.RunSeconds)

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	for _, w := range selected {
		if w.service && b.serverBin == "" {
			b.serverBin, b.serverBuildS, err = buildServer(ctx, b.root, filepath.Join(b.root, ".bench_build", "bin"))
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
	}

	traced := *trace != 0
	out := &resultFile{Env: environmentRecord(b)}
	failed := 0
	for _, w := range selected {
		var res *result
		if traced {
			res, err = b.traced(ctx, w)
		} else {
			res, err = b.measure(ctx, w)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		out.Results = append(out.Results, res)
		if err := report(stdout, decl, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		failed += res.FailedOps
	}
	if err := out.write(filepath.Join(b.outDir, "result.json")); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *regolden {
		if err := writeGolden(b, out.Results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Env     map[string]any `json:"env"`
	Results []*result      `json:"results"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// environmentRecord is what a reader needs to judge whether two result
// files are comparable.
func environmentRecord(b *bench) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"benchmark_commit": commit,
		"seed":             b.seed,
		"seconds":          b.seconds,
		"smoke":            b.smoke,
		"build_area_fs":    fsTypeOf(filepath.Join(b.root, ".bench_build")),
	}
}

// writeGolden records this run's digests as the committed expectation.
func writeGolden(b *bench, results []*result) error {
	g := golden{Seed: b.seed, Seconds: b.seconds, Digests: map[string]goldenEntry{}}
	for _, r := range results {
		if r.Traced || r.FailedOps > 0 {
			return fmt.Errorf("golden: %s is traced or has failed ops", r.Workload)
		}
		g.Digests[r.Workload] = goldenEntry{Ops: r.DigestOps, SHA256: r.Digest}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(b.root), append(data, '\n'), 0o644)
}
