package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"peas/internal/client"
	"peas/internal/geom"
	"peas/internal/jobqueue"
	"peas/internal/node"
)

// serveBin is cmd/peas-serve, built once per test binary (with -race when
// the tests are race-built) into a temp dir that TestMain removes.
var serveBin struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serveBin.dir != "" {
		os.RemoveAll(serveBin.dir)
	}
	os.Exit(code)
}

// peasServe returns the path of the peas-serve binary, building it on
// first use.
func peasServe(t *testing.T) string {
	t.Helper()
	serveBin.once.Do(func() {
		if serveBin.dir, serveBin.err = os.MkdirTemp("", "peas-serve-"); serveBin.err != nil {
			return
		}
		serveBin.path = filepath.Join(serveBin.dir, "peas-serve")
		args := []string{"build", "-o", serveBin.path}
		if raceEnabled {
			args = append(args, "-race")
		}
		if out, err := exec.Command("go", append(args, "peas/cmd/peas-serve")...).CombinedOutput(); err != nil {
			serveBin.err = fmt.Errorf("building peas-serve: %v\n%s", err, out)
		}
	})
	if serveBin.err != nil {
		t.Fatal(serveBin.err)
	}
	return serveBin.path
}

// testLog writes the child's output and the harness's progress lines to
// t.Log, which shows them on failure or with -v.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// requirePass logs report as JSON and fails t once per failed assertion,
// by name.
func requirePass(t *testing.T, report any, assertions []Assertion) {
	t.Helper()
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report:\n%s", enc)
	for _, a := range assertions {
		if !a.Ok {
			t.Errorf("assertion %s failed: %s", a.Name, a.Detail)
		}
	}
}

// TestServeDrainWithFollower boots peas-serve at -drain 2s with one job
// that outlives the budget and one SSE follower on it, then SIGTERMs: the
// drain must start at once, the follower must see a terminal event, and
// the server must exit 0 within 4.5 s. Closing HTTP before draining the
// pool would hold the exit ~5 s on the open stream.
func TestServeDrainWithFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs peas-serve")
	}
	proc := ServerProc{Bin: peasServe(t), Workers: 1, Queue: 4, DrainBudget: 2 * time.Second, Log: testLog{t}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := proc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer proc.Kill() // reaps the child if the test stops before Stop does
	c := client.New(proc.URL())

	// ~7 s unraced: a 150x150 m field on big batteries. The horizon stays
	// short of where a depletion deadline drops below one ulp of the clock.
	resp, err := c.Submit(ctx, &jobqueue.Spec{
		Network: node.Config{N: 4320, Seed: 12, Field: geom.Field{Width: 150, Height: 150},
			InitialEnergyMin: 3000, InitialEnergyMax: 3000},
		Horizon: 120000,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Job.ID
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		if info, err := c.Job(ctx, id); err == nil && info.State == jobqueue.StateRunning {
			break
		}
	}

	first := make(chan jobqueue.EventType, 1)
	last := make(chan jobqueue.EventType, 1)
	go func() {
		var prev jobqueue.EventType
		_ = c.Events(ctx, id, func(ev jobqueue.Event) bool {
			if prev == "" {
				first <- ev.Type
			}
			prev = ev.Type
			return true
		})
		last <- prev
	}()
	select {
	case ev := <-first:
		if ev != jobqueue.EventStarted && ev != jobqueue.EventProgress {
			t.Fatalf("follower attached at a %q event, not to a running job", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower saw no event")
	}

	t0 := time.Now()
	if err := proc.Stop(30 * time.Second); err != nil {
		t.Fatalf("SIGTERM with a follower attached: %v", err)
	}
	elapsed := time.Since(t0)
	// A terminal event carries the name of the state it ends in.
	if ev := <-last; !jobqueue.State(ev).Terminal() {
		t.Errorf("follower's last event is %q, not a terminal one", ev)
	}
	if elapsed > 4500*time.Millisecond {
		t.Errorf("SIGTERM to exit took %v with a follower attached (budget 4.5s)", elapsed)
	}
	t.Logf("exit %v after SIGTERM", elapsed)
}
