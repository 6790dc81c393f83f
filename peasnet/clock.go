package peasnet

import "time"

// clock is the live runtime's one source of time: every time read, timer
// and sleep in the package goes through it. Nodes, the in-memory transport
// and the cluster default to wall, the time package; tests substitute a
// virtual clock, on which an in-memory cluster is a function of its seed.
type clock interface {
	Now() time.Time
	// AfterFunc runs f after d on a goroutine of the clock's choosing;
	// stop cancels it and reports whether it did so before f ran.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
	Sleep(d time.Duration)
}

// wall is the clock of real time.
var wall clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
