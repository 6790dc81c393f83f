package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Event is one scripted fault. Channel-impairment classes (loss,
// burst-loss, dup, reorder, delay, partition) apply at At and revert at
// Until (0 = rest of the run); overlapping events of the same class
// override each other, last writer wins. Node-fault classes (fail-stop,
// fail-recover, crash-restart) either fire a Poisson arrival process over
// [At, Until) when Rate > 0, or strike Count victims exactly at At.
type Event struct {
	// At and Until bound the event window in protocol seconds.
	At    float64 `json:"at"`
	Until float64 `json:"until,omitempty"`
	// Class is the fault class to apply.
	Class FaultClass `json:"class"`
	// Rate: drop/duplicate/delay/reorder probability in [0,1] for channel
	// classes; failures per 5000 s (the paper's §5.2 unit) for node
	// classes.
	Rate float64 `json:"rate,omitempty"`
	// Gilbert-Elliott parameters (burst-loss only); zero values take the
	// defaults pGB=0.05, pBG=0.25, lossGood=0, lossBad=0.9.
	PGoodBad float64 `json:"pGoodBad,omitempty"`
	PBadGood float64 `json:"pBadGood,omitempty"`
	LossGood float64 `json:"lossGood,omitempty"`
	LossBad  float64 `json:"lossBad,omitempty"`
	// Delay is the maximum extra latency in seconds (delay and reorder
	// classes; default 0.05).
	Delay float64 `json:"delay,omitempty"`
	// Groups is the partition group count (partition only; default 2).
	Groups int `json:"groups,omitempty"`
	// Split picks the partition geometry: "stripe" (default) cuts the
	// field into Groups vertical stripes — spatial, as a severed relay
	// corridor would be, but with a small probing range a single cut may
	// sever few active links — while "random" assigns nodes to groups
	// uniformly (seeded), severing a fraction of every neighborhood.
	Split string `json:"split,omitempty"`
	// Victim pins the struck node ID for point node faults; nil picks
	// victims at random under Policy.
	Victim *int `json:"victim,omitempty"`
	// Count is how many victims a point node-fault event strikes
	// (default 1; ignored when Rate > 0).
	Count int `json:"count,omitempty"`
	// Downtime is seconds until recovery (fail-recover, crash-restart;
	// default 100).
	Downtime float64 `json:"downtime,omitempty"`
	// Policy narrows victim selection: "any" (default), "working", or
	// "sleeping".
	Policy string `json:"policy,omitempty"`
}

// Plan is a scripted chaos campaign: a seed for the fault RNG streams
// plus the event schedule.
type Plan struct {
	Name   string  `json:"name,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// channelClass reports whether the class impairs the channel (as opposed
// to striking nodes).
func channelClass(cl FaultClass) bool {
	switch cl {
	case Loss, BurstLoss, Duplicate, Reorder, Delay, Partition:
		return true
	}
	return false
}

func knownClass(cl FaultClass) bool {
	switch cl {
	case Loss, BurstLoss, Duplicate, Reorder, Delay, Partition,
		FailStop, FailRecover, CrashRestart:
		return true
	}
	return false
}

// Validate checks the plan for structural errors.
func (p *Plan) Validate() error {
	if len(p.Events) == 0 {
		return fmt.Errorf("chaos: plan %q has no events", p.Name)
	}
	for i, ev := range p.Events {
		if !knownClass(ev.Class) {
			return fmt.Errorf("chaos: event %d: unknown class %q", i, ev.Class)
		}
		if ev.At < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative start %v", i, ev.Class, ev.At)
		}
		if ev.Until != 0 && ev.Until <= ev.At {
			return fmt.Errorf("chaos: event %d (%s): until %v <= at %v", i, ev.Class, ev.Until, ev.At)
		}
		if channelClass(ev.Class) {
			if ev.Class != Partition && (ev.Rate < 0 || ev.Rate > 1) {
				return fmt.Errorf("chaos: event %d (%s): probability %v outside [0,1]", i, ev.Class, ev.Rate)
			}
			switch ev.Split {
			case "", "stripe", "random":
			default:
				return fmt.Errorf("chaos: event %d (%s): unknown split %q", i, ev.Class, ev.Split)
			}
			continue
		}
		if ev.Rate < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative rate %v", i, ev.Class, ev.Rate)
		}
		if ev.Count < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative count", i, ev.Class)
		}
		if ev.Downtime < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative downtime", i, ev.Class)
		}
		switch ev.Policy {
		case "", "any", "working", "sleeping":
		default:
			return fmt.Errorf("chaos: event %d (%s): unknown policy %q", i, ev.Class, ev.Policy)
		}
	}
	return nil
}

// Classes returns the distinct fault classes the plan schedules, in
// first-appearance order.
func (p *Plan) Classes() []FaultClass {
	seen := make(map[FaultClass]bool)
	var out []FaultClass
	for _, ev := range p.Events {
		if !seen[ev.Class] {
			seen[ev.Class] = true
			out = append(out, ev.Class)
		}
	}
	return out
}

// Parse decodes and validates a JSON plan. It decodes strictly: an
// unknown field or anything after the one JSON value is an error, so a
// misspelled option is refused instead of running with its default.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: parse plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("chaos: parse plan: data after the plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return &p, nil
}

// Load reads a JSON plan from disk.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	if p.Name == "" {
		p.Name = path
	}
	return p, nil
}

// MixedPlan returns the built-in campaign exercising every fault class
// within the given horizon: staggered channel impairments, a §5.2-style
// fail-stop arrival process, transient fail-recover churn, and one
// crash-restart of a working node. Deterministic under the given seed.
func MixedPlan(horizon float64, seed int64) *Plan {
	h := horizon
	return &Plan{
		Name: "mixed",
		Seed: seed,
		Events: []Event{
			{Class: Loss, At: 0.05 * h, Until: 0.30 * h, Rate: 0.15},
			{Class: Duplicate, At: 0.05 * h, Until: 0.95 * h, Rate: 0.05},
			{Class: Reorder, At: 0.05 * h, Until: 0.95 * h, Rate: 0.05, Delay: 0.05},
			{Class: FailStop, At: 0.10 * h, Until: 0.90 * h, Rate: 8},
			{Class: FailRecover, At: 0.10 * h, Until: 0.75 * h, Rate: 8, Downtime: 0.03 * h},
			{Class: BurstLoss, At: 0.35 * h, Until: 0.55 * h},
			{Class: Delay, At: 0.55 * h, Until: 0.70 * h, Rate: 0.30, Delay: 0.08},
			{Class: Partition, At: 0.55 * h, Until: 0.75 * h, Groups: 2, Split: "random"},
			{Class: CrashRestart, At: 0.60 * h, Downtime: 0.04 * h, Policy: "working"},
		},
	}
}
