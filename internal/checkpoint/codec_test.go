package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"peas/internal/core"
	"peas/internal/coverage"
	"peas/internal/forward"
	"peas/internal/geom"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/stats"
)

// sampleSnapshot builds a snapshot exercising every field class: optional
// slices both nil and populated, the optional Forward pointer, nested
// sequences, and negative/fractional floats.
func sampleSnapshot() *Snapshot {
	s := &Snapshot{
		SimTime:          1234.5678,
		Horizon:          5000,
		FailuresPer5000s: 20,
		Forwarding:       true,
		CoverageSpacing:  1,
		NextSampleAt:     1250,
	}
	s.Net = node.Config{
		Field: geom.Field{Width: 50, Height: 50},
		N:     3,
		Seed:  42,
		Positions: []geom.Point{
			{X: 1.5, Y: 2.5}, {X: 10, Y: 20}, {X: 49, Y: 48.25},
		},
		InitialEnergyMin: 20,
		InitialEnergyMax: 30,
	}
	s.Net.Protocol.ProbingRange = 3
	s.Net.Protocol.InitialRate = 0.1
	s.Net.Protocol.TurnoffEnabled = true
	s.Net.Radio.BitsPerSecond = 19200
	s.Net.Radio.MaxRange = 10
	s.Net.Energy.IdleW = 0.012

	s.Nodes = []node.NodeState{
		{
			Alive:   true,
			DeathAt: 4321.125,
			RNG:     stats.RNGState{State: 7, Inc: 9},
		},
		{
			Alive:  false,
			Cause:  node.Depletion,
			DiedAt: 987.5,
		},
		{
			Alive: true,
		},
	}
	s.Nodes[0].Battery.Initial = 25
	s.Nodes[0].Battery.Remaining = 12.75
	s.Nodes[0].Battery.ConsumedByMode[2] = 3.5
	s.Nodes[0].Proto.State = core.Working
	s.Nodes[0].Proto.Lambda = 0.2
	s.Nodes[0].Proto.Heard = []core.Reply{
		{From: 2, RateEstimate: 0.3, DesiredRate: 0.25, TimeWorking: 100},
	}
	s.Nodes[0].Proto.Stats.Wakeups = 11
	s.Nodes[2].Proto.State = core.Sleeping
	s.Nodes[2].Proto.Timers = []core.TimerRec{
		{Kind: core.TimerWakeup, At: 1300.0625},
		{Kind: core.TimerProbeSend, Probe: 1, At: 1240.5},
	}

	s.Medium.Sent = 100
	s.Medium.Delivered = 90
	s.Medium.BusyEnd = []float64{0, 1234.5, 1200}
	s.Medium.Corrupt = []bool{false, true, false}
	s.Medium.RNG = stats.RNGState{State: 1, Inc: 3}

	s.Injector.Injected = 4
	s.Injector.Victims = []core.NodeID{1}
	s.Injector.NextAt = 1500.25
	s.Injector.RNG = stats.RNGState{State: 5, Inc: 11}

	s.Forward = &forward.HarnessState{
		Generated:   120,
		Succeeded:   118,
		RatioPoints: []metrics.Point{{T: 10, V: 1}, {T: 20, V: 0.5}},
		RNG:         stats.RNGState{State: 13, Inc: 15},
		NextGenAt:   1240,
	}

	s.TrackerSamples = []coverage.Sample{
		{T: 0, ByK: []float64{1, 0.9, 0.4}},
		{T: 25, ByK: []float64{0.99, 0.85, 0.38}},
	}
	s.WorkingSeries = []metrics.Point{{T: 0, V: 30}, {T: 50, V: 12}}
	return s
}

// TestRoundTripByteIdentical is the codec acceptance criterion: encode,
// decode, re-encode must reproduce the exact byte stream.
func TestRoundTripByteIdentical(t *testing.T) {
	for name, snap := range map[string]*Snapshot{
		"populated": sampleSnapshot(),
		"zero":      {},
	} {
		t.Run(name, func(t *testing.T) {
			first := snap.EncodeBytes()
			back, err := DecodeBytes(first)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			second := back.EncodeBytes()
			if !bytes.Equal(first, second) {
				t.Fatalf("re-encode differs: %d bytes vs %d bytes", len(first), len(second))
			}
			if snap.StateHashHex() != back.StateHashHex() {
				t.Fatalf("state hash changed across round trip")
			}
		})
	}
}

func TestEncodeDecodeStream(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.SimTime != snap.SimTime || len(back.Nodes) != len(snap.Nodes) {
		t.Fatalf("stream round trip lost fields: %+v", back)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data := sampleSnapshot().EncodeBytes()
	data[0] ^= 0xff
	if _, err := DecodeBytes(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data := sampleSnapshot().EncodeBytes()
	data[8] = byte(Version + 1)
	if _, err := DecodeBytes(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := sampleSnapshot().EncodeBytes()
	// nil is an input too: it must decode, and fail, rather than encode.
	for _, in := range [][]byte{nil, data[:0], data[:4], data[:11], data[:len(data)/2], data[:len(data)-1]} {
		if _, err := DecodeBytes(in); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes (nil: %v): want ErrCorrupt, got %v", len(in), in == nil, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := append(sampleSnapshot().EncodeBytes(), 0xab)
	if _, err := DecodeBytes(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for trailing bytes, got %v", err)
	}
}

func TestDecodeRejectsOversizedCount(t *testing.T) {
	// Corrupt the node-count field (right after the fixed header and net
	// config) to a huge value; the decoder must error out instead of
	// attempting the allocation.
	snap := sampleSnapshot()
	data := snap.EncodeBytes()
	// The coder's own walk of the fields before the node count locates it.
	head := &coder{}
	snap.codeHead(head)
	off := len(head.buf)
	for i := 0; i < 4; i++ {
		data[off+i] = 0xff
	}
	if _, err := DecodeBytes(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for oversized count, got %v", err)
	}
}
