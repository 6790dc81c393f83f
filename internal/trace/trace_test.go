package trace

import (
	"bytes"
	"strings"
	"testing"

	"peas/internal/core"
	"peas/internal/node"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{T: 1, Kind: KindState, Node: 3, Detail: "working"})
	r.Record(Event{T: 2, Kind: KindDeath, Node: 4, Detail: "depletion"})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	evs := r.Events()
	if evs[0].Detail != "working" || evs[1].Detail != "depletion" {
		t.Errorf("events: %+v", evs)
	}
	// Events returns a copy.
	evs[0].Detail = "mutated"
	if r.Events()[0].Detail != "working" {
		t.Error("Events aliased internal storage")
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{T: float64(i), Kind: KindState})
	}
	if r.Len() != 2 {
		t.Errorf("limit not enforced: %d", r.Len())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{T: 1.5, Kind: KindState, Node: 2, Detail: "probing"})
	r.Record(Event{T: 2.5, Kind: KindPacket, Node: 4, Detail: "reply", Value: 2.25})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("lines = %d", got)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1] != r.Events()[1] {
		t.Errorf("round trip: %+v", back)
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"t":1}` + "\n" + `garbage`))
	if err == nil {
		t.Error("want decode error")
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{T: 1, Kind: KindState, Node: 0})
	r.Record(Event{T: 2, Kind: KindState, Node: 1})
	r.Record(Event{T: 9, Kind: KindDeath, Node: 0})
	s := r.Summarize()
	if s.Total != 3 || s.ByKind[KindState] != 2 || s.ByKind[KindDeath] != 1 {
		t.Errorf("summary %+v", s)
	}
	if s.FirstT != 1 || s.LastT != 9 {
		t.Errorf("time span %v-%v", s.FirstT, s.LastT)
	}
}

func TestAttachRecordsSimulation(t *testing.T) {
	net, err := node.NewNetwork(node.DefaultConfig(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(0)
	Attach(r, net)
	net.Start()
	net.Run(200)

	s := r.Summarize()
	if s.ByKind[KindState] == 0 {
		t.Error("no state events recorded")
	}
	if s.ByKind[KindPacket] == 0 {
		t.Error("no packet events recorded")
	}
	// Every packet event labels its payload type.
	for _, ev := range r.Events() {
		if ev.Kind == KindPacket && ev.Detail != "probe" && ev.Detail != "reply" {
			t.Fatalf("unlabelled packet event %+v", ev)
		}
	}
}

func TestAttachChainsExistingHooks(t *testing.T) {
	net, err := node.NewNetwork(node.DefaultConfig(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	prior := 0
	net.Observe(node.Observer{State: func(core.NodeID, core.State) { prior++ }})
	r := NewRecorder(0)
	Attach(r, net)
	net.Start()
	net.Run(50)
	if prior == 0 {
		t.Error("the State hook subscribed before the recorder did not run")
	}
	if got := r.Summarize().ByKind[KindState]; got != prior {
		t.Errorf("recorder saw %d state events, prior hook %d", got, prior)
	}
}
