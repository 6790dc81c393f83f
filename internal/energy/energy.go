// Package energy models the sensor-node battery and mode-based power
// draw. Parameters follow the paper's Berkeley-Motes-like configuration
// (§5.1): 60 mW transmitting, 12 mW receiving, 12 mW idle, 0.03 mW
// sleeping, with 54-60 J of initial energy (≈4500-5000 s of rx/idle life).
//
// The battery drains linearly in the current power mode. Callers settle the
// accumulated drain on every mode change and can ask for the projected
// depletion time so the simulator can schedule a death event instead of
// polling.
package energy

import "fmt"

// Mode is a node power mode.
type Mode int

// Power modes. Transmit and Receive are transient packet states layered on
// top of Idle by the radio; Sleep and Idle are the long-lived states the
// PEAS state machine switches between.
const (
	Sleep Mode = iota + 1
	Idle
	Receive
	Transmit
	// DataReceive and DataTransmit draw the same power as Receive and
	// Transmit but are accounted separately, so protocol overhead
	// (PROBE/REPLY traffic) and application data traffic can be told
	// apart in Table 1.
	DataReceive
	DataTransmit
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Sleep:
		return "sleep"
	case Idle:
		return "idle"
	case Receive:
		return "receive"
	case Transmit:
		return "transmit"
	case DataReceive:
		return "data-receive"
	case DataTransmit:
		return "data-transmit"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Profile holds per-mode power draw in watts.
type Profile struct {
	TransmitW float64
	ReceiveW  float64
	IdleW     float64
	SleepW    float64
}

// MotesProfile is the paper's hardware profile (§5.1): 60/12/12/0.03 mW.
func MotesProfile() Profile {
	return Profile{
		TransmitW: 0.060,
		ReceiveW:  0.012,
		IdleW:     0.012,
		SleepW:    0.00003,
	}
}

// Power returns the draw in watts for mode m.
func (p Profile) Power(m Mode) float64 {
	switch m {
	case Sleep:
		return p.SleepW
	case Idle:
		return p.IdleW
	case Receive, DataReceive:
		return p.ReceiveW
	case Transmit, DataTransmit:
		return p.TransmitW
	default:
		return p.IdleW
	}
}

// Battery tracks remaining energy for one node. It is driven by the
// simulation clock: the owner calls SetMode with the current time on every
// transition, and Drain settles elapsed consumption lazily.
type Battery struct {
	profile   Profile
	initial   float64 // joules
	remaining float64 // joules, settled up to lastT
	mode      Mode
	lastT     float64
	dead      bool

	// byMode[m-1] accumulates the joules consumed in mode m, for overhead
	// accounting — BatteryState.ConsumedByMode's layout.
	byMode [numModes]float64
}

// numModes is the number of power modes, Sleep..DataTransmit.
const numModes = int(DataTransmit)

// NewBattery returns a battery with the given initial charge in joules,
// starting in Sleep mode at time 0 (PEAS nodes boot asleep).
func NewBattery(profile Profile, joules float64) *Battery {
	return &Battery{
		profile:   profile,
		initial:   joules,
		remaining: joules,
		mode:      Sleep,
	}
}

// Initial returns the initial charge in joules.
func (b *Battery) Initial() float64 { return b.initial }

// Mode returns the current power mode.
func (b *Battery) Mode() Mode { return b.mode }

// Dead reports whether the battery has been exhausted (or force-killed).
func (b *Battery) Dead() bool { return b.dead }

// settle accrues consumption in the current mode up to time now.
func (b *Battery) settle(now float64) {
	if b.dead || now <= b.lastT {
		b.lastT = maxf(b.lastT, now)
		return
	}
	dt := now - b.lastT
	used := b.profile.Power(b.mode) * dt
	if used >= b.remaining {
		used = b.remaining
		b.dead = true
	}
	b.remaining -= used
	b.byMode[b.mode-1] += used
	b.lastT = now
}

// SetMode settles consumption and switches to mode m at time now.
func (b *Battery) SetMode(now float64, m Mode) {
	b.settle(now)
	b.mode = m
}

// Remaining settles up to now and returns the remaining joules.
func (b *Battery) Remaining(now float64) float64 {
	b.settle(now)
	return b.remaining
}

// Consumed settles up to now and returns total joules consumed, including
// any Spend charges.
func (b *Battery) Consumed(now float64) float64 {
	b.settle(now)
	return b.initial - b.remaining
}

// ConsumedIn settles up to now and returns the joules consumed in mode m.
func (b *Battery) ConsumedIn(now float64, m Mode) float64 {
	b.settle(now)
	if m < Sleep || m > DataTransmit {
		return 0
	}
	return b.byMode[m-1]
}

// Spend charges an instantaneous amount of energy (e.g. a packet's TX or
// RX cost computed as power x airtime) attributed to mode m. It reports
// whether the battery survived the charge.
func (b *Battery) Spend(now float64, m Mode, joules float64) bool {
	b.settle(now)
	if b.dead {
		return false
	}
	if joules >= b.remaining {
		b.byMode[m-1] += b.remaining
		b.remaining = 0
		b.dead = true
		return false
	}
	b.remaining -= joules
	b.byMode[m-1] += joules
	return true
}

// DepletionTime returns the absolute time at which the battery empties if
// it stays in its current mode. A dead battery depletes "now"; a zero-draw
// mode never depletes and returns +Inf via a very large value.
func (b *Battery) DepletionTime(now float64) float64 {
	b.settle(now)
	if b.dead {
		return now
	}
	p := b.profile.Power(b.mode)
	if p <= 0 {
		return maxFloat
	}
	return now + b.remaining/p
}

// BatteryState is the serializable state of a battery, as captured by the
// checkpoint subsystem. Fields are raw (unsettled): a snapshot must not
// settle, because settling splits the pending drain into two floating-
// point subtractions and would nudge the checkpointed run off the
// trajectory of an uninterrupted one.
type BatteryState struct {
	Initial   float64
	Remaining float64
	Mode      Mode
	LastT     float64
	Dead      bool
	// ConsumedByMode[m-1] is the settled consumption in mode m, in the
	// Sleep..DataTransmit constant order.
	ConsumedByMode [numModes]float64
}

// Snapshot captures the battery state without settling.
func (b *Battery) Snapshot() BatteryState {
	return BatteryState{
		Initial:        b.initial,
		Remaining:      b.remaining,
		Mode:           b.mode,
		LastT:          b.lastT,
		Dead:           b.dead,
		ConsumedByMode: b.byMode,
	}
}

// Restore overwrites the battery with a captured state.
func (b *Battery) Restore(st BatteryState) {
	b.initial = st.Initial
	b.remaining = st.Remaining
	b.mode = st.Mode
	b.lastT = st.LastT
	b.dead = st.Dead
	b.byMode = st.ConsumedByMode
}

// Kill settles consumption and marks the battery dead regardless of
// remaining charge. Injected node failures (paper §5.2: "failures are
// deaths not incurred by energy depletions") use this.
func (b *Battery) Kill(now float64) {
	b.settle(now)
	b.dead = true
}

const maxFloat = 1.797693134862315708145274237317043567981e308

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
