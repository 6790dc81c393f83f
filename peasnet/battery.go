package peasnet

import (
	"sync"
	"time"

	"peas/internal/core"
	"peas/internal/energy"
)

// BatteryConfig enables battery emulation on a live node: the node drains
// a virtual charge according to its protocol mode (at the node's
// TimeScale) and fails permanently on depletion, as a deployed sensor
// would.
type BatteryConfig struct {
	// Joules is the initial charge.
	Joules float64
	// Profile holds the per-mode power draw. The zero value selects the
	// paper's Motes profile.
	Profile energy.Profile
}

// battery is the simulator's energy.Battery on the live runtime's
// protocol clock. The model — drain, depletion projection, death at zero —
// is the one every simulated figure rests on; the mutex is all a live node
// adds, because BatteryRemaining is called from outside the event loop.
type battery struct {
	mu sync.Mutex
	b  *energy.Battery
}

func newBattery(cfg BatteryConfig) *battery {
	profile := cfg.Profile
	if profile == (energy.Profile{}) {
		profile = energy.MotesProfile()
	}
	return &battery{b: energy.NewBattery(profile, cfg.Joules)}
}

// setMode settles drain up to protocol time now and switches modes. It
// returns the projected protocol-time instant of depletion in the new mode
// (energy.Battery.DepletionTime: now for a dead battery, the largest float
// for a mode that draws nothing) and whether the battery is dead.
func (b *battery) setMode(now float64, m energy.Mode) (depleteAt float64, dead bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.b.SetMode(now, m)
	return b.b.DepletionTime(now), b.b.Dead()
}

// rebase positions the drain clock at protocol time t without settling —
// a restored node's battery must not be charged for the downtime its
// clock skipped over.
func (b *battery) rebase(t float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.b.Snapshot()
	st.LastT = t
	b.b.Restore(st)
}

// remainingAt settles and returns the remaining charge.
func (b *battery) remainingAt(now float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Remaining(now)
}

// protocolMode maps a protocol state to a battery mode.
func protocolMode(s core.State) energy.Mode {
	switch s {
	case core.Probing, core.Working:
		return energy.Idle
	default:
		return energy.Sleep
	}
}

// armBatteryWatch installs battery emulation hooks on a node. Called from
// NewNode when Config.Battery is set.
func (n *Node) armBatteryWatch() {
	if n.battery == nil {
		return
	}
	// Re-anchor the depletion timer on every state change.
	n.onBatteryState = func(s core.State) {
		now := n.Now()
		depleteAt, dead := n.battery.setMode(now, protocolMode(s))
		if dead {
			n.failDepleted()
			return
		}
		n.mu.Lock()
		if n.depletionTimer != nil {
			n.depletionTimer.Stop()
			n.depletionTimer = nil
		}
		// No timer for a depletion further off than a time.Duration can
		// hold, which includes the never of a mode that draws nothing.
		delay, ok := wallDelay(depleteAt-now, n.scale)
		if n.stopped || !ok || s == core.Dead {
			n.mu.Unlock()
			return
		}
		n.depletionTimer = time.AfterFunc(delay, n.failDepleted)
		n.mu.Unlock()
	}
}

// failDepleted marks the node dead from battery exhaustion.
func (n *Node) failDepleted() {
	n.post(func() {
		if n.proto.State() != core.Dead {
			n.proto.Fail()
		}
	})
}

// BatteryRemaining returns the emulated remaining charge in joules, or
// (0, false) when battery emulation is disabled.
func (n *Node) BatteryRemaining() (float64, bool) {
	if n.battery == nil {
		return 0, false
	}
	return n.battery.remainingAt(n.Now()), true
}
