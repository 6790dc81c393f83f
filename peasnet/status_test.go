package peasnet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"peas/internal/core"
	"peas/internal/geom"
)

func TestClusterStatus(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(10, 10),
		N:         12,
		Protocol:  core.DefaultConfig(),
		TimeScale: 150,
		Seed:      21,
		clk:       newVirtualClock(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	if !c.AwaitStable(0, 300*time.Millisecond, 10*time.Second) {
		t.Fatal("cluster never stabilized")
	}

	st := c.Status()
	if len(st.Nodes) != 12 {
		t.Fatalf("nodes = %d", len(st.Nodes))
	}
	if st.Working == 0 || st.Working != st.ByState["working"] {
		t.Errorf("working = %d byState = %v", st.Working, st.ByState)
	}
	if st.Totals["wakeups"] == 0 {
		t.Error("no wakeups in totals")
	}

	// HTTP round trip.
	srv := httptest.NewServer(c.StatusHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 12 || doc.ByState["working"] == 0 {
		t.Errorf("served doc: %+v", doc.ByState)
	}

	// Non-GET rejected.
	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d", post.StatusCode)
	}
}

// TestClusterStatusDuringCrashRestart polls Status while CrashRestart
// replaces a node: under -race, Status must read the node slice through
// the cluster lock, and every snapshot must list every node.
func TestClusterStatusDuringCrashRestart(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Field:     geom.NewField(8, 8),
		N:         6,
		Protocol:  core.DefaultConfig(),
		TimeScale: 200,
		Seed:      4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()

	done := make(chan error, 1)
	go func() {
		for id := 0; id < 3; id++ {
			if err := c.CrashRestart(id, 20*time.Millisecond); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		if st := c.Status(); len(st.Nodes) != 6 {
			t.Fatalf("status lists %d nodes, want 6", len(st.Nodes))
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}
