package peasnet

import (
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

// newBattery returns the simulator's energy.Battery for cfg. The model —
// drain, depletion projection, death at zero — is the one every simulated
// figure rests on; the live node runs it on its protocol clock, under its
// lock.
func newBattery(cfg BatteryConfig) *energy.Battery {
	profile := cfg.Profile
	if profile == (energy.Profile{}) {
		profile = energy.MotesProfile()
	}
	return energy.NewBattery(profile, cfg.Joules)
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

// watchBattery settles the drain up to now, switches the battery to s's
// mode and re-anchors the depletion timer. An empty battery projects its
// depletion at now, so the timer fires at once, after the current call:
// the protocol is never re-entered from inside SetState.
func (n *Node) watchBattery(s core.State) {
	now := n.Now()
	n.battery.SetMode(now, protocolMode(s))
	if n.stopDepletion != nil {
		n.stopDepletion()
		n.stopDepletion = nil
	}
	// No timer for a depletion further off than a time.Duration can
	// hold, which includes the never of a mode that draws nothing.
	delay, ok := wallDelay(n.battery.DepletionTime(now)-now, n.scale)
	if ok && s != core.Dead {
		n.stopDepletion = n.cfg.clk.AfterFunc(delay, n.deplete)
	}
}

// deplete marks the node dead from battery exhaustion.
func (n *Node) deplete() {
	n.call(func() {
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.battery.Remaining(n.Now()), true
}
