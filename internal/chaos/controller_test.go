package chaos

import (
	"math"
	"testing"

	"peas/internal/core"
	"peas/internal/node"
)

// attach builds an n-node network and attaches plan to it; the caller
// subscribes its observer and starts the network.
func attach(t *testing.T, n int, plan *Plan) (*node.Network, *Controller) {
	t.Helper()
	net, err := node.NewNetwork(node.DefaultConfig(n, 33))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := AttachSim(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	return net, ctl
}

// TestFailRecoverRevivesEveryVictim: every crash a rate-driven
// fail-recover event strikes is matched by a completed revival once the
// downtime elapses, and each strike is counted once.
func TestFailRecoverRevivesEveryVictim(t *testing.T) {
	plan := &Plan{Seed: 10, Events: []Event{
		{Class: FailRecover, At: 0, Until: 200, Rate: 5000, Downtime: 5}, // 1/s
	}}
	net, ctl := attach(t, 50, plan)
	crashes := 0
	net.Observe(node.Observer{Death: func(_ core.NodeID, cause node.DeathCause) {
		if cause == node.TransientFailure {
			crashes++
		}
	}})
	net.Start()
	net.Run(450) // past the window plus the last downtime

	fails, recovers := ctl.Counters().Get(CtrFailRecover), ctl.Counters().Get(CtrRecovered)
	if fails == 0 {
		t.Fatal("no failures injected")
	}
	if fails != uint64(crashes) {
		t.Errorf("fail.recover counted %d strikes, the network saw %d crashes", fails, crashes)
	}
	if recovers != fails {
		t.Errorf("%d recoveries for %d transient failures", recovers, fails)
	}
	if alive := net.AliveCount(); alive != 50 {
		t.Errorf("%d of 50 alive after all revivals", alive)
	}
}

// TestVictimPoliciesFilterCorrectly checks each victim policy on both
// paths that pick victims, a rate event's arrival loop and a point event,
// from the victim's state just before its strike: "working" strikes only
// working nodes, "sleeping" only the rest, and "any" strikes both in
// proportion to their population — the paper's "randomly distributed"
// failures hit sleepers and workers alike. Short fail-recover downtimes
// keep the pool from thinning.
func TestVictimPoliciesFilterCorrectly(t *testing.T) {
	for _, policy := range []string{"working", "sleeping", "any"} {
		t.Run(policy, func(t *testing.T) {
			plan := &Plan{Seed: 9, Events: []Event{
				{Class: FailRecover, At: 400, Count: 30, Downtime: 1, Policy: policy},
				{Class: FailRecover, At: 500, Until: 1500, Rate: 5000, Downtime: 1, Policy: policy},
			}}
			// The protocol enters Dead before the Death hook fires, so the
			// pre-strike state is the one before the last.
			const n = 100
			state := make([]core.State, n)
			before := make([]core.State, n)
			strikes, working := 0, 0
			var share float64 // sum of the working share of the alive pool at each strike
			net, ctl := attach(t, n, plan)
			net.Observe(node.Observer{
				State: func(id core.NodeID, s core.State) { before[id], state[id] = state[id], s },
				Death: func(id core.NodeID, cause node.DeathCause) {
					if cause != node.TransientFailure {
						return
					}
					wasWorking := before[id] == core.Working
					strikes++
					pool, workers := 1, 0
					if wasWorking {
						working++
						workers++
					}
					for _, nd := range net.Nodes {
						if nd.Alive() {
							pool++
							if nd.Working() {
								workers++
							}
						}
					}
					share += float64(workers) / float64(pool)
					switch {
					case policy == "working" && !wasWorking:
						t.Fatalf("policy working struck node %d in state %v", id, before[id])
					case policy == "sleeping" && wasWorking:
						t.Fatalf("policy sleeping struck working node %d", id)
					}
				},
			})
			net.Start()
			net.Run(1600)

			if got := ctl.Counters().Get(CtrFailRecover); got != uint64(strikes) || strikes < 30 {
				t.Fatalf("fail.recover %d, strikes seen %d", got, strikes)
			}
			if policy != "any" {
				return
			}
			if working == 0 || working == strikes {
				t.Fatalf("degenerate role split: %d working of %d victims", working, strikes)
			}
			got, want := float64(working)/float64(strikes), share/float64(strikes)
			if math.Abs(got-want) > 0.05 {
				t.Errorf("policy any struck working nodes at rate %.3f, population fraction %.3f", got, want)
			}
		})
	}
}
