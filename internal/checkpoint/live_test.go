package checkpoint

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"peas/internal/core"
	"peas/internal/stats"
)

// sampleLiveNode populates every field, including the slices the codec
// must length-prefix (Heard, Timers), so a round-trip exercise covers the
// full encoding.
func sampleLiveNode() *LiveNode {
	return &LiveNode{
		ID:            17,
		ProtoTime:     1234.5625,
		RNG:           stats.RNGState{State: 0xdeadbeefcafe, Inc: 0x12345},
		BatteryJoules: 41.25,
		Proto: core.ProtocolState{
			State:        core.Working,
			StateSince:   1000.5,
			Lambda:       0.021,
			WorkStart:    1000.5,
			ReplyPending: true,
			Heard: []core.Reply{
				{From: 3, RateEstimate: 0.018, DesiredRate: 0.02},
				{From: 9, RateEstimate: 0, DesiredRate: 0.02},
			},
			Stats: core.Stats{
				Wakeups: 7, ProbesSent: 21, RepliesSent: 4, RepliesHeard: 6,
				RateUpdates: 2, Turnoffs: 1,
				TimeWorking: 200.25, TimeSleeping: 900, TimeProbing: 3.5,
			},
			Estimator: core.EstimatorState{N: 5, T0: 1100, Started: true, Estimate: 0.019, Windows: 3},
			Timers: []core.TimerRec{
				{Kind: core.TimerReply, At: 1234.6},
				{Kind: core.TimerProbeSend, Probe: 2, At: 1234.7},
			},
		},
	}
}

func TestLiveNodeRoundTrip(t *testing.T) {
	s := sampleLiveNode()
	data := s.EncodeBytes()
	back, err := DecodeLiveNode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, s)
	}
	if s.StateHash() != back.StateHash() {
		t.Error("state hash changed across round trip")
	}
	if !bytes.Equal(data, back.EncodeBytes()) {
		t.Error("re-encoding is not bit-identical")
	}
}

func TestLiveNodeDeadAndUnmeteredCases(t *testing.T) {
	s := &LiveNode{
		ID:            0,
		BatteryJoules: -1, // battery emulation off
		Proto:         core.ProtocolState{State: core.Dead},
	}
	back, err := DecodeLiveNode(s.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.BatteryJoules != -1 || back.Proto.State != core.Dead {
		t.Errorf("got %+v", back)
	}
}

func TestDecodeLiveNodeRejectsCorruption(t *testing.T) {
	good := sampleLiveNode().EncodeBytes()

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, err := DecodeLiveNode(badMagic); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}

	badVersion := append([]byte(nil), good...)
	badVersion[8] = 0xFF // version u32 follows the 8-byte magic
	if _, err := DecodeLiveNode(badVersion); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: err = %v, want ErrVersion", err)
	}

	if _, err := DecodeLiveNode(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil: err = %v, want ErrCorrupt", err)
	}

	truncated := good[:len(good)-3]
	if _, err := DecodeLiveNode(truncated); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: err = %v, want ErrCorrupt", err)
	}

	trailing := append(append([]byte(nil), good...), 0)
	if _, err := DecodeLiveNode(trailing); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
}
