package peasnet

import (
	"fmt"
	"sync"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/core"
)

// This file is the cluster's crash-restart machinery: a supervisor that
// periodically checkpoints every running node (Supervise), plus the
// crash/restart operations that tear a node down abruptly and later
// rebuild it from its last checkpoint — the live counterpart of the
// simulator's crash-restart fault class.

// Supervise checkpoints every running, non-dead node now and then every
// `every` on the cluster's clock, keeping the latest snapshot per node,
// so a crash right after Supervise still finds a checkpoint. It returns
// a stop function, which is idempotent and waits out a sweep in flight;
// Stop calls it too.
func (c *Cluster) Supervise(every time.Duration) (stop func()) {
	if every <= 0 {
		panic("peasnet: non-positive Supervise interval")
	}
	var (
		mu      sync.Mutex // held through each sweep
		stopped bool
		cancel  func() bool
		sweep   func()
	)
	sweep = func() {
		mu.Lock()
		defer mu.Unlock()
		if !stopped {
			c.checkpointSweep()
			cancel = c.clk.AfterFunc(every, sweep)
		}
	}
	stop = func() {
		mu.Lock()
		defer mu.Unlock()
		if !stopped {
			stopped = true
			cancel()
		}
	}
	sweep()
	c.mu.Lock()
	c.supervisors = append(c.supervisors, stop)
	c.mu.Unlock()
	return stop
}

// checkpointSweep captures one checkpoint per running node. Dead nodes
// are skipped, keeping their last good (pre-death) checkpoint in place.
func (c *Cluster) checkpointSweep() {
	for _, n := range c.nodes() {
		if n.State() == core.Dead {
			continue
		}
		st, err := n.Checkpoint()
		if err != nil {
			continue // stopped or never started; nothing to capture
		}
		c.mu.Lock()
		c.ckpts[st.ID] = st
		c.mu.Unlock()
	}
}

// LastCheckpoint returns the most recent supervised checkpoint for node
// id, or nil when none was taken.
func (c *Cluster) LastCheckpoint(id int) *checkpoint.LiveNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ckpts[id]
}

// Crash kills node id abruptly: its event loop stops mid-flight and its
// transport endpoint is torn down, freeing the id for Restart. If no
// supervised checkpoint exists yet, one is captured at the crash instant
// (a crash-consistent snapshot), so Restart always has something to
// resume from.
func (c *Cluster) Crash(id int) error {
	n, err := c.nodeByID(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	_, have := c.ckpts[id]
	c.mu.Unlock()
	if !have {
		if st, cerr := n.Checkpoint(); cerr == nil {
			c.mu.Lock()
			c.ckpts[id] = st
			c.mu.Unlock()
		}
	}
	n.Stop()
	c.transport.Unregister(id)
	return nil
}

// Restart rebuilds node id from its last checkpoint and boots it: the
// protocol clock, RNG stream, battery charge and pending timers resume
// exactly where the checkpoint captured them, and the node re-registers
// on the transport under its old id and position.
func (c *Cluster) Restart(id int) error {
	old, err := c.nodeByID(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	st := c.ckpts[id]
	c.mu.Unlock()
	if st == nil {
		return fmt.Errorf("peasnet: no checkpoint for node %d", id)
	}
	n, err := RestoreNode(old.cfg, c.transport, st)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.Nodes[id] = n
	c.mu.Unlock()
	n.Start()
	return nil
}

// CrashRestart crashes node id, keeps it down for the given duration on
// the cluster's clock, then restarts it from its last checkpoint. It
// blocks for the downtime; on the wall clock, run it from its own
// goroutine to keep driving the cluster meanwhile.
func (c *Cluster) CrashRestart(id int, downtime time.Duration) error {
	if err := c.Crash(id); err != nil {
		return err
	}
	c.clk.Sleep(downtime)
	return c.Restart(id)
}

func (c *Cluster) nodeByID(id int) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.Nodes) {
		return nil, fmt.Errorf("peasnet: node %d out of range [0,%d)", id, len(c.Nodes))
	}
	return c.Nodes[id], nil
}
