package peasnet

import (
	"encoding/json"
	"net/http"

	"peas/internal/core"
)

// NodeStatus is one node's row in the cluster status document.
type NodeStatus struct {
	ID      int     `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	State   string  `json:"state"`
	Wakeups uint64  `json:"wakeups"`
}

// ClusterStatus is the JSON document served by StatusHandler.
type ClusterStatus struct {
	Nodes   []NodeStatus      `json:"nodes"`
	ByState map[string]int    `json:"byState"`
	Working int               `json:"working"`
	Totals  map[string]uint64 `json:"totals"`
}

// Status snapshots the cluster for monitoring.
func (c *Cluster) Status() ClusterStatus {
	st := ClusterStatus{
		ByState: make(map[string]int, 4),
		Totals:  make(map[string]uint64, 4),
	}
	for _, n := range c.Nodes {
		state := n.State()
		stats := n.Stats()
		st.Nodes = append(st.Nodes, NodeStatus{
			ID:      n.ID(),
			X:       n.Pos().X,
			Y:       n.Pos().Y,
			State:   state.String(),
			Wakeups: stats.Wakeups,
		})
		st.ByState[state.String()]++
		if state == core.Working {
			st.Working++
		}
		st.Totals["wakeups"] += stats.Wakeups
		st.Totals["probesSent"] += stats.ProbesSent
		st.Totals["repliesSent"] += stats.RepliesSent
		st.Totals["turnoffs"] += stats.Turnoffs
	}
	return st
}

// StatusHandler serves the cluster status as JSON — plug it into any
// mux (cmd/peas-live exposes it under -status).
func (c *Cluster) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
