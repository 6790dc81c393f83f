package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateRejectsMalformedPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"empty", Plan{Name: "e"}, "no events"},
		{"unknown class", Plan{Events: []Event{{Class: "meteor", At: 1}}}, "unknown class"},
		{"negative at", Plan{Events: []Event{{Class: Loss, At: -1}}}, "negative start"},
		{"until before at", Plan{Events: []Event{{Class: Loss, At: 5, Until: 3}}}, "until"},
		{"probability above one", Plan{Events: []Event{{Class: Duplicate, At: 1, Rate: 1.5}}}, "outside [0,1]"},
		{"probability negative", Plan{Events: []Event{{Class: Delay, At: 1, Rate: -0.1}}}, "outside [0,1]"},
		{"unknown split", Plan{Events: []Event{{Class: Partition, At: 1, Split: "diagonal"}}}, "unknown split"},
		{"negative rate", Plan{Events: []Event{{Class: FailStop, At: 1, Rate: -8}}}, "negative rate"},
		{"negative count", Plan{Events: []Event{{Class: FailStop, At: 1, Count: -1}}}, "negative count"},
		{"negative downtime", Plan{Events: []Event{{Class: FailRecover, At: 1, Downtime: -5}}}, "negative downtime"},
		{"unknown policy", Plan{Events: []Event{{Class: FailStop, At: 1, Policy: "dead"}}}, "unknown policy"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	ok := Plan{Events: []Event{
		{Class: Partition, At: 10, Until: 20, Split: "random"},
		{Class: Partition, At: 30, Until: 40, Split: "stripe"},
		{Class: CrashRestart, At: 5, Policy: "working"},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestParseSortsEventsByStart(t *testing.T) {
	p, err := Parse([]byte(`{"seed": 3, "events": [
		{"class": "delay", "at": 50, "rate": 0.2},
		{"class": "loss", "at": 10, "rate": 0.1},
		{"class": "fail-stop", "at": 30, "count": 2}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 3 {
		t.Errorf("seed = %d", p.Seed)
	}
	for i := 1; i < len(p.Events); i++ {
		if p.Events[i].At < p.Events[i-1].At {
			t.Fatalf("events not sorted by At: %v", p.Events)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	body := `{"events": [{"class": "burst-loss", "at": 100, "until": 200, "pGoodBad": 0.1, "lossBad": 1}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != path {
		t.Errorf("Name = %q, want the path as default", p.Name)
	}
	ev := p.Events[0]
	if ev.Class != BurstLoss || ev.Until != 200 || ev.PGoodBad != 0.1 || ev.LossBad != 1 {
		t.Errorf("event = %+v", ev)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("Load of missing file succeeded")
	}
	if _, err := Load(path + "x"); err == nil {
		t.Error("Load of missing file succeeded")
	}
	// Decoding is strict: a misspelled option ("down_time" for
	// "downtime") or a second value is refused, not dropped.
	for _, bad := range []string{
		`{"events": [{"class": "fail-recover", "at": 100, "rate": 0.01, "down_time": 50}]}`,
		body + ` {}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted %s", bad)
		}
	}
}

func TestMixedPlanCoversEveryClass(t *testing.T) {
	p := MixedPlan(2000, 7)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got := p.Classes()
	all := []FaultClass{Loss, BurstLoss, Duplicate, Reorder, Delay, Partition, FailStop, FailRecover, CrashRestart}
	if len(got) != len(all) {
		t.Fatalf("mixed plan schedules %d classes, want %d: %v", len(got), len(all), got)
	}
	seen := make(map[FaultClass]bool)
	for _, cl := range got {
		seen[cl] = true
	}
	for _, cl := range all {
		if !seen[cl] {
			t.Errorf("mixed plan missing class %s", cl)
		}
	}
	for _, ev := range p.Events {
		if ev.Until > 2000 || ev.At >= 2000 {
			t.Errorf("event %s outside horizon: %+v", ev.Class, ev)
		}
	}
}
