package main

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaration holds BENCHMARK.json to the contract's limits and to the
// program: same workloads, in the same order, as the code's table.
func TestDeclaration(t *testing.T) {
	decl, err := loadDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for i, w := range decl.Workloads {
		check("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range decl.EndToEnd {
		check("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s with unit s, better lower")
	}
	for _, m := range decl.PerLayer {
		check("metric", m.Name)
	}
	for _, name := range append(append([]string(nil), exactCounts...), realPassMetrics...) {
		if !seen[name] {
			t.Errorf("%s is listed in the program but not declared", name)
		}
	}
}

// TestSmoke runs the whole benchmark at smoke size — all five workloads,
// untraced and traced, kernels included — and checks that what it emits is
// exactly what BENCHMARK.json declares and that nothing failed. It keeps
// the benchmark compiling and honest without running it for minutes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts peas-serve; skipped under -short")
	}
	decl, err := loadDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, traced := range []bool{false, true} {
		args := []string{"-root", "..", "-smoke", "-seed", "7", "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		var stdout, stderr bytes.Buffer
		if code := run(ctx, args, &stdout, &stderr); code != 0 {
			t.Fatalf("benchmark %v exited %d\n%s\n%s", args, code, stdout.String(), stderr.String())
		}
		var lines []outputLine
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(l, "{") {
				var o outputLine
				if err := json.Unmarshal([]byte(l), &o); err != nil {
					t.Fatalf("unparsable result line %q: %v", l, err)
				}
				lines = append(lines, o)
			}
		}
		if len(lines) != len(decl.Workloads) {
			t.Fatalf("trace=%v: %d result lines for %d workloads", traced, len(lines), len(decl.Workloads))
		}
		declared := decl.metricsFor(traced)
		for i, o := range lines {
			w := decl.Workloads[i].Name
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, o.Correct, o.Attempted, o.Failed, stdout.String())
			}
			if len(o.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, traced, len(o.Metrics), len(declared))
			}
			for _, d := range declared {
				v, ok := o.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s not emitted", w, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s %s: unit %q, declared %q", w, d.Name, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s %s = %g: an end-to-end metric must never be 0", w, d.Name, v.Value)
				}
			}
		}
	}
}

// TestCompare checks the verdicts of the compare tool on hand-made results.
func TestCompare(t *testing.T) {
	decl := &declaration{EndToEnd: []metricDecl{
		{Name: "jobs_per_s", Better: "higher", Bound: 0.10},
		{Name: "job_ms_p50", Better: "lower", Bound: 0.10},
	}}
	file := func(jobs, ms float64, digest string) *resultFile {
		return &resultFile{Results: []*result{{Workload: "w", Seed: 1, Seconds: 15, Digest: digest,
			Metrics: map[string]float64{"jobs_per_s": jobs, "job_ms_p50": ms}}}}
	}
	tests := []struct {
		name string
		a, b *resultFile
		want int
		say  string
	}{
		{"within bounds", file(100, 10, "d"), file(95, 10.5, "d"), 0, "agree"},
		{"much better is not a regression", file(100, 10, "d"), file(200, 5, "d"), 0, "agree"},
		{"throughput fell 20%", file(100, 10, "d"), file(80, 10, "d"), 1, "exceeds"},
		{"latency rose 20%", file(100, 10, "d"), file(100, 12, "d"), 1, "exceeds"},
		{"digest differs at the same seed", file(100, 10, "d"), file(100, 10, "e"), 1, "digest differs"},
	}
	for _, tc := range tests {
		var out bytes.Buffer
		if got := compareResults(decl, tc.a, tc.b, &out); got != tc.want || !strings.Contains(out.String(), tc.say) {
			t.Errorf("%s: exit %d, want %d with %q in\n%s", tc.name, got, tc.want, tc.say, out.String())
		}
	}

	traced := func(events float64) *resultFile {
		return &resultFile{Results: []*result{{Workload: "w", Traced: true, Seed: 1, Seconds: 15,
			Metrics: map[string]float64{"sim.events": events}}}}
	}
	var out bytes.Buffer
	if got := compareResults(decl, traced(5), traced(5), &out); got != 0 {
		t.Errorf("identical exact counts: exit %d\n%s", got, out.String())
	}
	if got := compareResults(decl, traced(5), traced(6), &out); got != 1 {
		t.Errorf("different exact counts: exit %d\n%s", got, out.String())
	}
}

// spin burns CPU until the deadline so the profile has something to show.
func spin(until time.Time) (n int) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseProfile feeds the hand-written profile.proto reader a real
// runtime/pprof CPU profile and expects to find the function that burned
// the CPU, with shares that partition the profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, ".spin")
		}
		if s.value <= 0 {
			t.Errorf("sample with weight %d", s.value)
		}
	}
	if !found {
		t.Errorf("no sample names spin among %d samples", len(samples))
	}
	var total float64
	for _, share := range layerShares(samples) {
		total += share
	}
	if len(samples) > 0 && (total < 0.999 || total > 1.001) {
		t.Errorf("layer shares sum to %g, want 1", total)
	}
	if got := layerOfFunc("peas/internal/sim.(*Engine).Run"); got != "sim" {
		t.Errorf("layerOfFunc = %q, want sim", got)
	}
	if got := layerOfFunc("peas/internal/stats.(*RNG).Int63"); got != "" {
		t.Errorf("layerOfFunc(stats) = %q, want none: stats is charged to its caller's layer", got)
	}
}
