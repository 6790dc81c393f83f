package peas_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"peas/internal/jobqueue"
	"peas/internal/server"
	"peas/peasnet"
)

// buildTool compiles one command into the test's temp dir and returns the
// binary path. Building once per test keeps the suite hermetic.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCLIPeasSim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildTool(t, "cmd/peas-sim")
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")
	seriesOut := filepath.Join(dir, "series.csv")
	svgOut := filepath.Join(dir, "final.svg")

	out := runTool(t, bin, "-n", "100", "-horizon", "600",
		"-trace", traceOut, "-series", seriesOut, "-svg", svgOut)
	for _, want := range []string{"mean working nodes", "wakeups", "energy overhead",
		"route rebuilds over", "working-set flips"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{traceOut, seriesOut, svgOut} {
		info, err := os.Stat(f)
		if err != nil || info.Size() == 0 {
			t.Errorf("artifact %s missing or empty: %v", f, err)
		}
	}

	// -config: a job spec file, as peas-serve takes it, decides the run,
	// and a run flag given beside it is ignored.
	writeSpec := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out = runTool(t, bin, "-config", writeSpec("sc.json", `{"network":{"N":80,"Seed":1},"horizon":300}`), "-n", "40")
	if !strings.Contains(out, "80 nodes") {
		t.Errorf("spec not applied, or -n overrode it:\n%s", out)
	}

	// (a) One spec with a chaos plan prints the same metrics, chaos
	// activity included, run here and through a peas-serve front end,
	// with the invariant oracle armed or not.
	const chaosBody = `"network":{"N":60,"Seed":1},"horizon":500,"forwarding":true,
		"chaos":{"seed":3,"events":[{"class":"loss","at":10,"rate":0.2},{"class":"dup","at":20,"rate":0.2},
		{"class":"delay","at":30,"rate":0.2},{"class":"fail-stop","at":100,"count":2}]}`
	chaosSpec := writeSpec("chaos.json", "{"+chaosBody+"}")
	checkedSpec := writeSpec("chaos-check.json", `{"check":true,`+chaosBody+"}")
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 4})
	pool.Start()
	ts := httptest.NewServer(server.New(pool, 1))
	defer func() {
		ts.Close()
		_ = pool.Shutdown(context.Background())
	}()
	metrics := func(out string) string { return out[max(strings.Index(out, "deployment:"), 0):] }
	local := metrics(runTool(t, bin, "-config", chaosSpec))
	remote := metrics(runTool(t, bin, "-config", chaosSpec, "-remote", ts.URL))
	_, activity, _ := strings.Cut(local, "chaos activity:\n")
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(activity), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if local != remote || len(names) < 4 || !slices.IsSorted(names) {
		t.Errorf("local and remote runs of one spec differ, or chaos activity is not by name:\n%s\n---\n%s", local, remote)
	}
	checkedLocal := runTool(t, bin, "-config", checkedSpec)
	checkedRemote := runTool(t, bin, "-config", checkedSpec, "-remote", ts.URL)
	if metrics(checkedLocal) != metrics(checkedRemote) || !strings.Contains(checkedLocal, "0 violations over 500 s") ||
		!strings.Contains(checkedLocal, "chaos activity:") {
		t.Errorf("local and remote checked runs of one chaos spec differ:\n%s\n---\n%s", checkedLocal, checkedRemote)
	}

	// (b) A spec is refused whole, with its cause named, before anything
	// runs.
	for _, tc := range []struct{ body, want string }{
		{`{"network":{"N":40,"Seed":1},"horizn":300}`, `unknown field "horizn"`},
		{`{"network":{"N":40,"Seed":1,"Protocol":{"ProbingRange":-3}}}`, "probing"},
		{`{"network":{"N":40,"Seed":1,"Radio":{"LossRate":0.1}}}`, "Radio.BitsPerSecond"},
		{`{"network":{"N":40,"Seed":1}} {"horizon":300}`, "data after the job spec"},
		{`{"network":{"N":40,"Seed":1},"deadlineSeconds":30}`, "deadlineSeconds"},
	} {
		out, err := exec.Command(bin, "-config", writeSpec("bad.json", tc.body)).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "deployment:") {
			t.Errorf("%s: err=%v, want a refusal naming %q:\n%s", tc.body, err, tc.want, out)
		}
	}

	// (c) An unset horizon is left to the mode: a check pass bounds it
	// at 5000 s, and a resumed run ends where the checkpointed one did,
	// printing the metrics of the snapshot's workload, not the flags'.
	out = runTool(t, bin, "-n", "40", "-check")
	if !strings.Contains(out, "violations over 5000 s") {
		t.Errorf("-check without -horizon:\n%s", out)
	}
	ckptDir := filepath.Join(dir, "ckpt")
	direct := runTool(t, bin, "-n", "40", "-forward=false", "-checkpoint-every", "300", "-checkpoint-dir", ckptDir, "-horizon", "900")
	resumed := runTool(t, bin, "-resume", filepath.Join(ckptDir, "checkpoint-t0000300.0.ckpt"))
	end := func(out string) string { return out[strings.Index(out, "deployment:"):strings.Index(out, "engine:")] }
	if end(direct) != end(resumed) {
		t.Errorf("resume without -horizon ends elsewhere:\n%s\n---\n%s", direct, resumed)
	}

	// (d) -check is one run with every flag it was given: its files are
	// the plain run's byte for byte (the chain's runs stay out of the
	// trace), the report precedes the metrics, and the chain runs beside
	// the user's own checkpoints. What it cannot honour is refused by
	// name.
	outputs := func(prefix string) []string {
		return []string{"-series", filepath.Join(dir, prefix+".csv"), "-svg", filepath.Join(dir, prefix+".svg"),
			"-trace", filepath.Join(dir, prefix+".jsonl")}
	}
	run := []string{"-n", "40", "-horizon", "500"}
	out = runTool(t, bin, slices.Concat(run, []string{"-check"}, outputs("checked"))...)
	runTool(t, bin, slices.Concat(run, outputs("plain"))...)
	report, stats, _ := strings.Cut(out, "deployment:")
	if !strings.Contains(report, "0 violations over 500 s") || !strings.Contains(report, "checkpoint chain bit-exact") ||
		!strings.Contains(stats, "mean working nodes") {
		t.Errorf("-check with outputs: want the check report, then the metrics:\n%s", out)
	}
	for _, ext := range []string{".csv", ".svg", ".jsonl"} {
		checked, err := os.ReadFile(filepath.Join(dir, "checked"+ext))
		plain, _ := os.ReadFile(filepath.Join(dir, "plain"+ext))
		if err != nil || len(checked) == 0 || string(checked) != string(plain) {
			t.Errorf("-check %s output missing or unlike the plain run's: %v", ext, err)
		}
	}
	checkDir := filepath.Join(dir, "check-ckpt")
	out = runTool(t, bin, "-n", "40", "-check", "-checkpoint-every", "200", "-checkpoint-dir", checkDir, "-horizon", "400")
	for _, name := range []string{"checkpoint-t0000200.0.ckpt", "checkpoint-t0000400.0.ckpt"} {
		if _, err := os.Stat(filepath.Join(checkDir, name)); err != nil {
			t.Errorf("-check -checkpoint-every: %v", err)
		}
	}
	if !strings.Contains(out, "checkpoint chain bit-exact") {
		t.Errorf("-check -checkpoint-every skipped the chain:\n%s", out)
	}
	for _, tc := range []struct {
		args []string
		code int
		want []string
	}{
		{[]string{"-n", "40", "-horizon", "400", "-check", "-resume", filepath.Join(checkDir, "checkpoint-t0000200.0.ckpt")},
			1, []string{"-check", "-resume"}},
		{[]string{"-n", "40", "-verify"}, 2, []string{"flag provided but not defined: -verify"}},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		code := -1
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
		for _, want := range tc.want {
			if code != tc.code || !strings.Contains(string(out), want) || strings.Contains(string(out), "deployment:") {
				t.Errorf("%v: exit %d, want %d and a refusal naming %q:\n%s", tc.args, code, tc.code, want, out)
			}
		}
	}
}

func TestCLIPeasReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	simBin := buildTool(t, "cmd/peas-sim")
	replayBin := buildTool(t, "cmd/peas-replay")
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	runTool(t, simBin, "-n", "80", "-horizon", "400", "-trace", traceOut)

	out := runTool(t, replayBin, "-in", traceOut, "-deaths")
	for _, want := range []string{"events spanning", "working nodes over time", "state"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIPeasBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildTool(t, "cmd/peas-bench")
	out := runTool(t, bin, "-exp", "density")
	if !strings.Contains(out, "Lemma 3.1") {
		t.Errorf("bench output:\n%s", out)
	}
	// CSV format: stdout alone must parse as CSV, every record as wide
	// as the header (the table's note is a # comment).
	csvOut, err := exec.Command(bin, "-exp", "density", "-format", "csv").Output()
	if err != nil {
		t.Fatalf("-format csv: %v", err)
	}
	r := csv.NewReader(bytes.NewReader(csvOut))
	r.Comment = '#'
	records, err := r.ReadAll()
	if err != nil {
		t.Errorf("-format csv stdout is not CSV: %v\n%s", err, csvOut)
	} else if len(records) < 2 || records[0][0] != "nodes" {
		t.Errorf("csv output:\n%s", csvOut)
	}
	// JSON format.
	out = runTool(t, bin, "-exp", "estimator", "-format", "json")
	if !strings.Contains(out, `"columns"`) {
		t.Errorf("json output:\n%s", out)
	}
	// Ids match case-insensitively; an unknown one is an error naming the
	// valid ids, not an empty success.
	out = runTool(t, bin, "-exp", "DENSITY")
	if !strings.Contains(out, "Lemma 3.1") {
		t.Errorf("case-insensitive id:\n%s", out)
	}
	unknown, err := exec.Command(bin, "-exp", "fig99").CombinedOutput()
	if err == nil {
		t.Errorf("-exp fig99 exited 0:\n%s", unknown)
	}
	if !strings.Contains(string(unknown), `unknown experiment "fig99"`) || !strings.Contains(string(unknown), "fig9, fig10") {
		t.Errorf("-exp fig99 output does not list the valid ids:\n%s", unknown)
	}
}

func TestCLIPeasNodeGen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildTool(t, "cmd/peas-node")
	peers := filepath.Join(t.TempDir(), "peers.json")
	out := runTool(t, bin, "-gen", "5", "-field", "12", "-base-port", "44100", "-peers", peers)
	if !strings.Contains(out, "wrote 5 peers") {
		t.Errorf("gen output:\n%s", out)
	}
	data, err := os.ReadFile(peers)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "44104") {
		t.Errorf("peer table missing last port:\n%s", data)
	}
}

// TestCLIPeasNodeNetwork runs the deployment path across processes: six
// peas-node processes, one per row of a peer table on free loopback
// ports, form one network over UDP, and every one exits cleanly.
func TestCLIPeasNodeNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildTool(t, "cmd/peas-node")
	const n = 6
	peers := make([]peasnet.PeerInfo, n)
	held := make([]*net.UDPConn, n) // until every port is drawn, so no two rows share one
	for i := range peers {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		held[i] = c
		peers[i] = peasnet.PeerInfo{ID: i, Addr: c.LocalAddr().String(), X: 2 * float64(i%3), Y: 2 * float64(i/3)}
	}
	for _, c := range held {
		_ = c.Close()
	}
	table := filepath.Join(t.TempDir(), "peers.json")
	if err := peasnet.WritePeersFile(table, peers); err != nil {
		t.Fatal(err)
	}

	type proc struct {
		cmd *exec.Cmd
		out strings.Builder
	}
	procs := make([]*proc, n)
	for i := range procs {
		p := &proc{cmd: exec.Command(bin, "-id", strconv.Itoa(i), "-peers", table, "-scale", "200", "-duration", "3s")}
		p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
		procs[i] = p
	}
	for _, p := range procs {
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	working := 0
	for i, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			t.Errorf("node %d: %v\n%s", i, err, p.out.String())
		}
		if strings.Contains(p.out.String(), "final: state=working") {
			working++
		}
	}
	if working == 0 {
		t.Errorf("no node ended working:\n%s", procs[0].out.String())
	}
}
