package peasnet

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"peas/internal/core"
	"peas/internal/sim"
)

// virtualClock is a clock over a sim.Engine whose time unit is the
// nanosecond, so wall-equivalent durations add up exactly. Time moves
// only inside Sleep, which runs the due callbacks one at a time on the
// sleeping goroutine, each only once every node's event loop is idle (the
// posted-job count is zero). A callback posts at most one node's job, so
// at most one loop runs at a time and an in-memory cluster on this clock
// is a function of its seed. One goroutine drives it: only one may call
// Sleep, and callbacks must not.
type virtualClock struct {
	mu   sync.Mutex
	idle sync.Cond // broadcast when jobs falls to zero
	eng  *sim.Engine
	jobs int
}

var _ clock = (*virtualClock)(nil)

// virtualEpoch is the instant a virtual clock starts at.
var virtualEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func newVirtualClock() *virtualClock {
	v := &virtualClock{eng: sim.NewEngine()}
	v.idle.L = &v.mu
	return v
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
	t := v.eng.NewTimer(func() {
		// The engine is only touched under mu: release it while f posts
		// work, then wait for that work before the next callback.
		v.mu.Unlock()
		f()
		v.mu.Lock()
		v.waitIdle()
	})
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
	v.waitIdle()
	v.eng.Run(v.eng.Now() + float64(d))
}

func (v *virtualClock) posted(delta int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.jobs += delta; v.jobs == 0 {
		v.idle.Broadcast()
	}
}

func (v *virtualClock) settle() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.waitIdle()
}

func (v *virtualClock) waitIdle() {
	for v.jobs > 0 {
		v.idle.Wait()
	}
}

// pending returns how many callbacks are still scheduled.
func (v *virtualClock) pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.eng.Pending()
}

// TestVirtualClock pins the clock the in-memory tests run on: time moves
// only in Sleep, callbacks run in deadline order on the sleeper, a stopped
// callback never runs, and Sleep returns only once posted jobs are done.
func TestVirtualClock(t *testing.T) {
	v := newVirtualClock()
	start := v.Now()
	var order []int
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	stop := v.AfterFunc(15*time.Millisecond, func() { order = append(order, 0) })
	done := make(chan struct{})
	v.AfterFunc(10*time.Millisecond, func() {
		v.posted(1)
		go func() {
			for range 100 {
				runtime.Gosched() // a clock that did not wait would run 2 now
			}
			order = append(order, 3)
			v.posted(-1)
			close(done)
		}()
	})
	if !stop() || stop() {
		t.Error("stop must report true once, for the callback it cancelled")
	}
	if got := v.Now().Sub(start); got != 0 {
		t.Errorf("time moved %v without a Sleep", got)
	}
	v.Sleep(25 * time.Millisecond)
	<-done
	if got := v.Now().Sub(start); got != 25*time.Millisecond {
		t.Errorf("Sleep(25ms) moved time %v", got)
	}
	if want := []int{1, 3, 2}; !slices.Equal(order, want) {
		t.Errorf("callbacks ran in order %v, want %v", order, want)
	}
	if n := v.pending(); n != 0 {
		t.Errorf("%d callbacks still pending", n)
	}
}

// TestStopUncountsDroppedJobs: jobs a node drops at Stop leave the clock's
// count, or a virtual clock would wait for them forever.
func TestStopUncountsDroppedJobs(t *testing.T) {
	vc := newVirtualClock()
	tr := vc.inMemory()
	defer func() { _ = tr.Close() }()
	n, err := NewNode(Config{ID: 1, Protocol: core.DefaultConfig(), clk: vc}, tr)
	if err != nil {
		t.Fatal(err)
	}
	n.post(func() { t.Error("a job posted to a node that never started ran") })
	n.Stop()
	n.post(func() { t.Error("a job posted after Stop ran") })
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if vc.jobs != 0 {
		t.Errorf("%d jobs still counted after Stop", vc.jobs)
	}
}
