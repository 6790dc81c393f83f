package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModeString(t *testing.T) {
	tests := []struct {
		m    Mode
		want string
	}{
		{Sleep, "sleep"},
		{Idle, "idle"},
		{Receive, "receive"},
		{Transmit, "transmit"},
		{DataReceive, "data-receive"},
		{DataTransmit, "data-transmit"},
		{Mode(99), "Mode(99)"},
	}
	for _, tc := range tests {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.m), got, tc.want)
		}
	}
}

func TestMotesProfile(t *testing.T) {
	p := MotesProfile()
	// Paper §5.1: 60, 12, 12, 0.03 mW.
	if p.Power(Transmit) != 0.060 || p.Power(Receive) != 0.012 ||
		p.Power(Idle) != 0.012 || p.Power(Sleep) != 0.00003 {
		t.Errorf("profile %+v does not match the paper", p)
	}
	if p.Power(DataTransmit) != p.Power(Transmit) {
		t.Error("data transmit must draw transmit power")
	}
	if p.Power(Mode(99)) != p.IdleW {
		t.Error("unknown mode should fall back to idle")
	}
}

func TestIdleLifetimeMatchesPaper(t *testing.T) {
	// "The initial energy of a node is randomly chosen from the range of
	// 54-60 J ... allowing the node to operate about 4500-5000 seconds
	// in reception/idle modes."
	p := MotesProfile()
	b := NewBattery(p, 54)
	b.SetMode(0, Idle)
	life := b.DepletionTime(0)
	if life != 4500 {
		t.Errorf("54 J idle life = %v s, want 4500", life)
	}
	b2 := NewBattery(p, 60)
	b2.SetMode(0, Idle)
	if got := b2.DepletionTime(0); got != 5000 {
		t.Errorf("60 J idle life = %v s, want 5000", got)
	}
}

func TestBatteryDrainAndModes(t *testing.T) {
	p := MotesProfile()
	b := NewBattery(p, 10)
	if b.Mode() != Sleep {
		t.Fatal("batteries boot in sleep mode")
	}
	b.SetMode(100, Idle) // 100 s of sleep: 3e-3 J
	if got := b.ConsumedIn(100, Sleep); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("sleep consumption = %v, want 0.003", got)
	}
	b.SetMode(200, Sleep) // 100 s of idle: 1.2 J
	if got := b.ConsumedIn(200, Idle); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("idle consumption = %v, want 1.2", got)
	}
	wantRemaining := 10 - 0.003 - 1.2
	if got := b.Remaining(200); math.Abs(got-wantRemaining) > 1e-12 {
		t.Errorf("remaining = %v, want %v", got, wantRemaining)
	}
}

func TestBatterySpend(t *testing.T) {
	b := NewBattery(MotesProfile(), 1)
	if !b.Spend(0, Transmit, 0.4) {
		t.Fatal("spend within charge should succeed")
	}
	if got := b.ConsumedIn(0, Transmit); got != 0.4 {
		t.Errorf("transmit consumption = %v", got)
	}
	// Overdraw kills the battery and reports failure.
	if b.Spend(0, Transmit, 2) {
		t.Fatal("overdraw should fail")
	}
	if !b.Dead() {
		t.Error("overdrawn battery should be dead")
	}
	if b.Remaining(0) != 0 {
		t.Errorf("dead battery remaining = %v", b.Remaining(0))
	}
	if b.Spend(1, Idle, 0.1) {
		t.Error("spending from a dead battery should fail")
	}
}

func TestBatteryKill(t *testing.T) {
	b := NewBattery(MotesProfile(), 50)
	b.SetMode(0, Idle)
	b.Kill(100)
	if !b.Dead() {
		t.Fatal("killed battery should be dead")
	}
	// Settled drain up to the kill instant is retained.
	if got := b.ConsumedIn(100, Idle); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("consumption at kill = %v, want 1.2", got)
	}
	if b.DepletionTime(200) != 200 {
		t.Error("dead battery depletes now")
	}
}

// TestBatteryDrainsToDeathInMode is the mode-drain life cycle the live
// runtime's battery emulation leans on: exact linear drain, a projection
// that moves with the mode, and death at zero by drain alone (no Spend, no
// Kill), under the paper's profile and under a custom one.
func TestBatteryDrainsToDeathInMode(t *testing.T) {
	b := NewBattery(MotesProfile(), 1.2)
	b.SetMode(0, Idle)
	if got := b.DepletionTime(0); got != 100 {
		t.Errorf("1.2 J idle depletion projected at %v, want 100", got)
	}
	if got := b.Remaining(50); got != 0.6 {
		t.Errorf("remaining after 50 s idle = %v, want 0.6", got)
	}
	b.SetMode(50, Sleep)
	if got := b.DepletionTime(50); got != 50+0.6/0.00003 {
		t.Errorf("sleep depletion projected at %v, want %v", got, 50+0.6/0.00003)
	}

	d := NewBattery(MotesProfile(), 0.012) // one second of idle life
	d.SetMode(0, Idle)
	if got := d.Remaining(2); got != 0 || !d.Dead() {
		t.Errorf("drained past empty: remaining = %v, dead = %v; want 0, true", got, d.Dead())
	}
	d.SetMode(3, Sleep)
	if !d.Dead() || d.DepletionTime(3) != 3 {
		t.Error("a drained battery must stay dead and deplete now")
	}
	if got := d.Consumed(3); got != 0.012 {
		t.Errorf("consumed = %v, want the whole 0.012 J charge", got)
	}

	c := NewBattery(Profile{IdleW: 1, SleepW: 0.5, ReceiveW: 1, TransmitW: 2}, 10)
	c.SetMode(0, Idle)
	if got := c.DepletionTime(0); got != 10 {
		t.Errorf("custom profile depletion at %v, want 10", got)
	}
}

func TestBatteryTimeNeverRewinds(t *testing.T) {
	b := NewBattery(MotesProfile(), 10)
	b.SetMode(100, Idle)
	// An out-of-order settle must not produce negative consumption.
	if got := b.Remaining(50); got > 10 {
		t.Errorf("remaining grew: %v", got)
	}
	b.SetMode(200, Sleep)
	if got := b.Consumed(200); got <= 0 {
		t.Errorf("consumed = %v", got)
	}
}

// TestEnergyConservation is the core battery invariant: consumed plus
// remaining equals the initial charge, regardless of the mode/spend
// sequence applied.
func TestEnergyConservation(t *testing.T) {
	err := quick.Check(func(ops []struct {
		Dt    uint16
		Kind  uint8
		Spend uint16
	}) bool {
		b := NewBattery(MotesProfile(), 20)
		now := 0.0
		modes := []Mode{Sleep, Idle, Receive, Transmit}
		for _, op := range ops {
			now += float64(op.Dt) / 100
			if op.Kind%3 == 0 {
				b.Spend(now, Transmit, float64(op.Spend)/1e4)
			} else {
				b.SetMode(now, modes[int(op.Kind)%len(modes)])
			}
			if b.Dead() {
				break
			}
		}
		total := b.Consumed(now) + b.Remaining(now)
		return math.Abs(total-20) < 1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestDepletionTimeProjection(t *testing.T) {
	b := NewBattery(MotesProfile(), 12)
	b.SetMode(0, Idle)
	want := 12 / 0.012
	if got := b.DepletionTime(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("depletion = %v, want %v", got, want)
	}
	// After advancing halfway, the projection shifts accordingly.
	if got := b.DepletionTime(want / 2); math.Abs(got-want) > 1e-6 {
		t.Errorf("mid-life depletion = %v, want %v", got, want)
	}
	// Zero-draw profile never depletes.
	z := NewBattery(Profile{}, 1)
	if got := z.DepletionTime(0); got < 1e100 {
		t.Errorf("zero-draw depletion = %v", got)
	}
}

// BenchmarkBatteryCharge is the battery's share of a radio event: settle
// the elapsed drain, then charge one packet to its mode's ledger. It must
// report 0 allocs/op.
func BenchmarkBatteryCharge(b *testing.B) {
	bat := NewBattery(MotesProfile(), 1e12)
	bat.SetMode(0, Idle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Spend(float64(i)*0.01, Receive, 0.00012)
	}
}
