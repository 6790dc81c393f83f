package peasnet

import (
	"fmt"
	"sync"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/core"
	"peas/internal/geom"
	"peas/internal/stats"
)

// ClusterConfig describes a whole live network.
type ClusterConfig struct {
	// Field is the deployment area.
	Field geom.Field
	// N is the number of nodes; positions are drawn uniformly unless
	// Positions is set (len == N).
	N         int
	Positions []geom.Point
	// Protocol holds the PEAS parameters shared by all nodes.
	Protocol core.Config
	// TimeScale compresses protocol time (see Config.TimeScale).
	TimeScale float64
	// Seed drives deployment and per-node randomness.
	Seed int64
	// OnState is an optional observer for all nodes' mode changes.
	OnState func(id int, s core.State)
	// Battery, when non-nil, enables battery emulation on every node.
	Battery *BatteryConfig

	clk clock // nil means wall; shared by the nodes and an owned transport
}

// Cluster manages a set of live nodes over one transport.
//
// Nodes is exported for read access; while Supervise, Crash or Restart
// are in use, go through the Cluster methods (which lock) instead of
// iterating Nodes directly — Restart replaces slice elements.
type Cluster struct {
	Nodes     []*Node
	transport Transport
	ownsTrans bool
	clk       clock

	mu          sync.Mutex
	ckpts       map[int]*checkpoint.LiveNode // latest supervised per-node checkpoints
	supervisors []func()                     // stop functions of Supervise calls
}

// nodes returns a consistent copy of the node slice for lock-free
// iteration.
func (c *Cluster) nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Node(nil), c.Nodes...)
}

// NewCluster deploys cfg.N live nodes on the given transport. If
// transport is nil an in-memory transport is created and owned by the
// cluster (closed by Stop).
func NewCluster(cfg ClusterConfig, transport Transport) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("peasnet: cluster size %d must be positive", cfg.N)
	}
	if cfg.clk == nil {
		cfg.clk = wall
	}
	owns := false
	if transport == nil {
		mem := NewInMemory()
		mem.clk = cfg.clk
		transport, owns = mem, true
	}
	rng := stats.NewRNG(cfg.Seed)
	positions := cfg.Positions
	if positions == nil {
		positions = geom.UniformDeploy(cfg.Field, cfg.N, rng)
	} else if len(positions) != cfg.N {
		return nil, fmt.Errorf("peasnet: %d positions for %d nodes", len(positions), cfg.N)
	}

	c := &Cluster{
		transport: transport,
		ownsTrans: owns,
		clk:       cfg.clk,
		Nodes:     make([]*Node, 0, cfg.N),
		ckpts:     make(map[int]*checkpoint.LiveNode),
	}
	for i := 0; i < cfg.N; i++ {
		n, err := NewNode(Config{
			ID:        i,
			Pos:       positions[i],
			Protocol:  cfg.Protocol,
			TimeScale: cfg.TimeScale,
			Seed:      rng.Int63(),
			OnState:   cfg.OnState,
			Battery:   cfg.Battery,
			clk:       cfg.clk,
		}, transport)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// Start boots every node.
func (c *Cluster) Start() {
	for _, n := range c.nodes() {
		n.Start()
	}
}

// Stop ends supervision, shuts every node down and closes an owned
// transport.
func (c *Cluster) Stop() {
	c.mu.Lock()
	supervisors := c.supervisors
	c.mu.Unlock()
	for _, stop := range supervisors {
		stop()
	}
	for _, n := range c.nodes() {
		n.Stop()
	}
	if c.ownsTrans {
		_ = c.transport.Close()
	}
}

// WorkingCount returns how many nodes are currently in Working mode.
func (c *Cluster) WorkingCount() int {
	count := 0
	for _, n := range c.nodes() {
		if n.State() == core.Working {
			count++
		}
	}
	return count
}

// WorkingPositions returns the positions of the working nodes.
func (c *Cluster) WorkingPositions() []geom.Point {
	var pts []geom.Point
	for _, n := range c.nodes() {
		if n.State() == core.Working {
			pts = append(pts, n.Pos())
		}
	}
	return pts
}

// StateCounts returns how many nodes are currently in each mode.
func (c *Cluster) StateCounts() map[core.State]int {
	counts := make(map[core.State]int, 4)
	for _, n := range c.nodes() {
		counts[n.State()]++
	}
	return counts
}

// TotalStats sums the protocol counters across all nodes. It snapshots
// each node in turn, so the totals are approximate while the network is
// running.
func (c *Cluster) TotalStats() core.Stats {
	var total core.Stats
	for _, n := range c.nodes() {
		s := n.Stats()
		total.Wakeups += s.Wakeups
		total.ProbesSent += s.ProbesSent
		total.RepliesSent += s.RepliesSent
		total.RepliesHeard += s.RepliesHeard
		total.RateUpdates += s.RateUpdates
		total.Turnoffs += s.Turnoffs
		total.TimeWorking += s.TimeWorking
		total.TimeSleeping += s.TimeSleeping
		total.TimeProbing += s.TimeProbing
	}
	return total
}

// AwaitStable polls until the working count stays non-zero and within
// ±tol of a reference for the given settle duration, or until timeout; a
// larger move re-anchors the reference. It reports whether the set
// settled. tol 0 asks for an unchanged count; under channel impairments
// the working set hovers rather than freezes, so callers there pass a
// small tolerance. Durations are on the cluster's clock — on the wall
// clock, Go's monotonic one, so a wall-clock step cannot extend or cut the
// wait. Instead of spinning at a fixed short period the poll interval
// backs off exponentially while nothing moves, re-tightening on churn; a
// poll reads atomics only, so concurrent waiters cost nothing.
func (c *Cluster) AwaitStable(tol int, settle, timeout time.Duration) bool {
	start := c.clk.Now()
	deadline := start.Add(timeout)
	const minPoll = 2 * time.Millisecond
	maxPoll := min(max(settle/4, minPoll), 100*time.Millisecond)

	ref := c.WorkingCount()
	stableSince := start
	interval := minPoll
	for now := start; now.Before(deadline); now = c.clk.Now() {
		cur := c.WorkingCount()
		if cur == 0 || max(cur-ref, ref-cur) > tol {
			ref, stableSince, interval = cur, now, minPoll
		} else if now.Sub(stableSince) >= settle {
			return true
		}
		c.clk.Sleep(min(interval, deadline.Sub(now)))
		interval = min(2*interval, maxPoll)
	}
	return false
}
