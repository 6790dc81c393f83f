package peasnet

import (
	"slices"
	"sync"
	"testing"
	"time"

	"peas/internal/core"
	"peas/internal/geom"
	"peas/internal/sim"
)

// virtualClock is a clock over a sim.Engine whose time unit is the
// nanosecond, so wall-equivalent durations add up exactly. Time moves
// only inside Sleep, which runs the due callbacks one at a time on the
// sleeping goroutine. A callback runs at most one node's protocol call to
// completion, so one call runs at a time and an in-memory cluster on this
// clock is a function of its seed. One goroutine drives it: only one may
// call Sleep, and callbacks must not.
type virtualClock struct {
	mu  sync.Mutex
	eng *sim.Engine
}

var _ clock = (*virtualClock)(nil)

// virtualEpoch is the instant a virtual clock starts at.
var virtualEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func newVirtualClock() *virtualClock {
	return &virtualClock{eng: sim.NewEngine()}
}

// inMemory returns an in-memory transport delivering on v.
func (v *virtualClock) inMemory() *InMemory {
	t := NewInMemory()
	t.clk = v
	return t
}

func (v *virtualClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return virtualEpoch.Add(time.Duration(v.eng.Now()))
}

func (v *virtualClock) AfterFunc(d time.Duration, f func()) func() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := new(sim.Timer)
	v.eng.InitTimer(t, func(any) {
		// The engine is only touched under mu: release it while f runs,
		// since f arms and reads the clock itself.
		v.mu.Unlock()
		f()
		v.mu.Lock()
	}, nil)
	t.Reset(float64(d))
	return func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		armed := t.Armed()
		t.Stop()
		return armed
	}
}

func (v *virtualClock) Sleep(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.eng.Run(v.eng.Now() + float64(d))
}

// pending returns how many callbacks are still scheduled.
func (v *virtualClock) pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.eng.Pending()
}

// TestVirtualClock pins the clock the in-memory tests run on: time moves
// only in Sleep, callbacks run in deadline order on the sleeper, and a
// stopped callback never runs.
func TestVirtualClock(t *testing.T) {
	v := newVirtualClock()
	start := v.Now()
	var order []int
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	stop := v.AfterFunc(15*time.Millisecond, func() { order = append(order, 0) })
	if !stop() || stop() {
		t.Error("stop must report true once, for the callback it cancelled")
	}
	if got := v.Now().Sub(start); got != 0 {
		t.Errorf("time moved %v without a Sleep", got)
	}
	v.Sleep(25 * time.Millisecond)
	if got := v.Now().Sub(start); got != 25*time.Millisecond {
		t.Errorf("Sleep(25ms) moved time %v", got)
	}
	if want := []int{1, 2}; !slices.Equal(order, want) {
		t.Errorf("callbacks ran in order %v, want %v", order, want)
	}
	if n := v.pending(); n != 0 {
		t.Errorf("%d callbacks still pending", n)
	}
}

// TestNotRunningNodeRunsNoCall: a node that never started and a stopped
// node run no protocol call and answer at once, so Status on a cluster
// that has not started returns zero counters rather than waiting for it.
func TestNotRunningNodeRunsNoCall(t *testing.T) {
	vc := newVirtualClock()
	c, err := NewCluster(ClusterConfig{
		Field:    geom.NewField(10, 10),
		N:        4,
		Protocol: core.DefaultConfig(),
		Seed:     1,
		clk:      vc,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	status := make(chan ClusterStatus, 1)
	go func() { status <- c.Status() }()
	select {
	case st := <-status:
		if len(st.Nodes) != 4 || st.Working != 0 {
			t.Errorf("unstarted cluster: %d nodes, %d working", len(st.Nodes), st.Working)
		}
		for name, v := range st.Totals {
			if v != 0 {
				t.Errorf("unstarted cluster counts %s = %d", name, v)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Status on an unstarted cluster did not return")
	}

	n := c.Nodes[0]
	if n.call(func() { t.Error("a node that never started ran a call") }) {
		t.Error("call reports a run on a node that never started")
	}
	n.Start()
	vc.Sleep(100 * time.Millisecond)
	n.Stop()
	if n.call(func() { t.Error("a stopped node ran a call") }) {
		t.Error("call reports a run on a stopped node")
	}
	if _, err := n.crash(); err == nil {
		t.Error("a stopped node crashed")
	}
}
