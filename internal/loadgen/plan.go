// Package loadgen is the deterministic load-generation and soak-testing
// harness of the simulation service. It synthesizes a seeded workload
// plan — a sequence of job specs with a tunable duplicate-key ratio, an
// SSE-follow fraction, a chaos-job fraction and Poisson arrival times —
// and drives a peas-serve instance with it in open-loop (fixed arrival
// rate) or closed-loop (fixed concurrency) mode through the typed
// client, so the client itself is exercised under real concurrency.
//
// Everything the generator sends is a pure function of the seed: two
// runs with the same Mix submit the identical multiset of content keys
// (see KeyMultisetHash), which is what makes observed cache-hit and
// coalesce rates assertable against the configured mix, and what makes
// soak results comparable across drain/restart cycles.
package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"peas/internal/chaos"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
	"peas/internal/node"
	"peas/internal/stats"
)

// Mix configures the synthesized workload.
type Mix struct {
	// Seed drives every random choice in the plan.
	Seed int64 `json:"seed"`
	// Jobs is the number of submissions (0 = 100).
	Jobs int `json:"jobs"`
	// DuplicateRatio is the probability that a submission reuses an
	// earlier distinct spec instead of minting a new one, the knob that
	// sets the target cache-hit + singleflight-coalesce rate.
	DuplicateRatio float64 `json:"duplicateRatio"`
	// FollowFraction is the probability that a submission follows its
	// job over the SSE event stream instead of polling.
	FollowFraction float64 `json:"followFraction"`
	// ChaosFraction is the probability that a freshly minted spec
	// carries a scripted chaos plan (exercising the fault-injection and
	// restart-from-spec paths).
	ChaosFraction float64 `json:"chaosFraction"`
	// N is the deployment size per job (0 = 40: tens of milliseconds of
	// wall time per run, so a plan of hundreds of jobs stays snappy).
	N int `json:"n"`
	// Horizon is the simulated seconds per job (0 = 600).
	Horizon float64 `json:"horizon"`
	// RateHz is the open-loop arrival rate in submissions per second
	// (0 = 50). Arrival offsets are drawn from a Poisson process at
	// this rate, pre-computed so they too are seed-deterministic.
	RateHz float64 `json:"rateHz"`
	// LongJobs appends this many distinct long-horizon jobs at the end
	// of the plan (0 = none). The soak harness uses them as guaranteed
	// drain victims: they are still running when the server is
	// SIGTERMed, so they must checkpoint-suspend and resume.
	LongJobs int `json:"longJobs,omitempty"`
	// LongHorizon is the simulated seconds for long jobs (0 = 1000x
	// Horizon, comfortably past the network's lifetime so the horizon
	// never cuts the run short).
	LongHorizon float64 `json:"longHorizon,omitempty"`
	// LongN is the deployment size for long jobs (0 = 50x N). Wall time
	// scales with N (the event count does), not with the horizon — once
	// the network dies the event queue drains no matter how far the
	// horizon reaches — so a big deployment is what buys the soak a
	// multi-second window to observe the job running and SIGTERM the
	// server mid-run.
	LongN int `json:"longN,omitempty"`
	// CancelFraction is the probability that a submission is cancelled
	// at a seeded point in its lifecycle (0 = none). Cancel timing is
	// drawn uniformly over a short window, so cancels land while queued,
	// mid-run, or after completion (a deliberate race — cancellation is
	// best-effort, and a cancel that loses to completion must leave the
	// job done). Hang and deadline items are never cancel candidates:
	// their expected outcome would become ambiguous.
	CancelFraction float64 `json:"cancelFraction,omitempty"`
	// HangJobs inserts this many distinct plain jobs marked Item.Hang
	// (0 = none). The spec carries no fault: a test serves the plan from
	// a pool whose jobqueue.Config.Run wedges on these jobs' seeds, and
	// the watchdog must preempt every one (failed state, watchdog
	// message) while the surrounding jobs keep completing.
	HangJobs int `json:"hangJobs,omitempty"`
	// DeadlineJobs inserts this many jobs of 4x LongN nodes carrying a
	// DeadlineSeconds budget far below their multi-second runtime
	// (0 = none). Each must be killed by deadline enforcement — either
	// deadline_exceeded after admission or fast-rejected as infeasible —
	// never completed and never lost.
	DeadlineJobs int `json:"deadlineJobs,omitempty"`
}

func (m Mix) withDefaults() Mix {
	if m.Jobs <= 0 {
		m.Jobs = 100
	}
	if m.N <= 0 {
		m.N = 40
	}
	if m.Horizon <= 0 {
		m.Horizon = 600
	}
	if m.RateHz <= 0 {
		m.RateHz = 50
	}
	if m.LongHorizon <= 0 {
		m.LongHorizon = 1000 * m.Horizon
	}
	if m.LongN <= 0 {
		m.LongN = 50 * m.N
	}
	return m
}

// Item is one planned submission.
type Item struct {
	// Index is the submission's position in the plan.
	Index int
	// Spec is the job to submit (already normalized).
	Spec *jobqueue.Spec
	// Key is the spec's content address, precomputed so reports and
	// assertions never depend on server responses.
	Key string
	// Duplicate marks a submission that reuses an earlier spec.
	Duplicate bool
	// Follow marks a submission that follows the job over SSE.
	Follow bool
	// Long marks a long-horizon drain-victim job (soak mode).
	Long bool
	// Cancel marks a submission the runner cancels CancelAfter after
	// submitting; its expected terminal state is cancelled or — when the
	// cancel loses the race — done.
	Cancel bool
	// CancelAfter is the seeded delay between submit and DELETE.
	CancelAfter time.Duration
	// Hang marks a job the server is expected to hang on and its
	// watchdog to preempt (failed state, watchdog message).
	Hang bool
	// Deadline is the job's DeadlineSeconds budget (0 = unbounded);
	// planned deadline jobs carry one their runtime cannot meet.
	Deadline float64
	// Arrival is the open-loop arrival offset from the run start.
	Arrival time.Duration
}

// Plan synthesizes the workload: a pure function of the mix. The
// returned items are already normalized and keyed.
func Plan(mix Mix) ([]Item, error) {
	mix = mix.withDefaults()
	if mix.DuplicateRatio < 0 || mix.DuplicateRatio > 1 {
		return nil, fmt.Errorf("loadgen: duplicate ratio %v outside [0,1]", mix.DuplicateRatio)
	}
	if mix.FollowFraction < 0 || mix.FollowFraction > 1 {
		return nil, fmt.Errorf("loadgen: follow fraction %v outside [0,1]", mix.FollowFraction)
	}
	if mix.ChaosFraction < 0 || mix.ChaosFraction > 1 {
		return nil, fmt.Errorf("loadgen: chaos fraction %v outside [0,1]", mix.ChaosFraction)
	}
	if mix.CancelFraction < 0 || mix.CancelFraction > 1 {
		return nil, fmt.Errorf("loadgen: cancel fraction %v outside [0,1]", mix.CancelFraction)
	}

	rng := stats.NewRNG(mix.Seed)
	items := make([]Item, 0, mix.Jobs+mix.LongJobs)
	// distinct tracks the specs minted so far; duplicates re-submit a
	// uniformly drawn earlier one (its normalized spec is shared — the
	// transport only marshals it, never mutates it).
	type minted struct {
		spec *jobqueue.Spec
		key  string
	}
	var distinct []minted
	var arrival time.Duration

	mint := func(n int, horizon float64, long bool) (minted, error) {
		spec := &jobqueue.Spec{
			Network:          node.DefaultConfig(n, rng.Int63()),
			FailuresPer5000s: experiment.BaseFailuresPer5000,
			Horizon:          horizon,
		}
		// Long jobs never carry chaos plans: a chaos run cannot
		// checkpoint, and the soak needs its drain victims to suspend
		// with a snapshot and resume bit-exactly.
		if !long && rng.Float64() < mix.ChaosFraction {
			spec.Chaos = chaos.MixedPlan(horizon, rng.Int63())
		}
		if err := spec.Normalize(); err != nil {
			return minted{}, fmt.Errorf("loadgen: synthesized invalid spec: %w", err)
		}
		return minted{spec: spec, key: spec.Key()}, nil
	}

	// drawCancel marks an item for a seeded cancellation. Every RNG draw
	// is gated on the knob so zero-knob mixes keep the exact draw sequence
	// (and hence key multiset) they had before cancellation existed.
	// Duplicates are never candidates: a cancel on a coalesced submission
	// would kill the shared primary job and make both outcomes ambiguous.
	drawCancel := func(it *Item) {
		if mix.CancelFraction <= 0 || it.Duplicate {
			return
		}
		if rng.Float64() < mix.CancelFraction {
			it.Cancel = true
			it.CancelAfter = time.Duration(rng.Float64() * float64(200*time.Millisecond))
		}
	}

	for i := 0; i < mix.Jobs; i++ {
		// Poisson arrivals: exponential inter-arrival gaps at RateHz.
		arrival += time.Duration(rng.Exp(mix.RateHz) * float64(time.Second))
		it := Item{Index: i, Follow: rng.Float64() < mix.FollowFraction, Arrival: arrival}
		if len(distinct) > 0 && rng.Float64() < mix.DuplicateRatio {
			m := distinct[rng.Intn(len(distinct))]
			it.Spec, it.Key, it.Duplicate = m.spec, m.key, true
		} else {
			m, err := mint(mix.N, mix.Horizon, false)
			if err != nil {
				return nil, err
			}
			distinct = append(distinct, m)
			it.Spec, it.Key = m.spec, m.key
		}
		drawCancel(&it)
		items = append(items, it)
	}
	for i := 0; i < mix.HangJobs; i++ {
		arrival += time.Duration(rng.Exp(mix.RateHz) * float64(time.Second))
		spec := &jobqueue.Spec{
			Network:          node.DefaultConfig(mix.N, rng.Int63()),
			FailuresPer5000s: experiment.BaseFailuresPer5000,
			Horizon:          mix.Horizon,
		}
		if err := spec.Normalize(); err != nil {
			return nil, fmt.Errorf("loadgen: synthesized invalid hang spec: %w", err)
		}
		items = append(items, Item{
			Index: len(items), Spec: spec, Key: spec.Key(), Hang: true, Arrival: arrival,
		})
	}
	for i := 0; i < mix.DeadlineJobs; i++ {
		arrival += time.Duration(rng.Exp(mix.RateHz) * float64(time.Second))
		// Deployments four times a long job's, whose runs take seconds,
		// with a 250ms budget: the deadline can never be met, so
		// enforcement — not luck — decides the outcome. A long job's own
		// size is not enough: its run can end inside the watchdog's
		// reaction time.
		m, err := mint(4*mix.LongN, mix.LongHorizon, true)
		if err != nil {
			return nil, err
		}
		m.spec.DeadlineSeconds = 0.25
		items = append(items, Item{
			Index: len(items), Spec: m.spec, Key: m.key, Deadline: 0.25, Arrival: arrival,
		})
	}
	for i := 0; i < mix.LongJobs; i++ {
		arrival += time.Duration(rng.Exp(mix.RateHz) * float64(time.Second))
		m, err := mint(mix.LongN, mix.LongHorizon, true)
		if err != nil {
			return nil, err
		}
		it := Item{
			Index: len(items), Spec: m.spec, Key: m.key, Long: true, Arrival: arrival,
		}
		drawCancel(&it)
		items = append(items, it)
	}
	return items, nil
}

// planCancels counts the planned cancelled submissions.
func planCancels(items []Item) int {
	n := 0
	for _, it := range items {
		if it.Cancel {
			n++
		}
	}
	return n
}

// planHangJobs counts the planned hang submissions.
func planHangJobs(items []Item) int {
	n := 0
	for _, it := range items {
		if it.Hang {
			n++
		}
	}
	return n
}

// planDeadlineJobs counts the planned unmeetable-deadline submissions.
func planDeadlineJobs(items []Item) int {
	n := 0
	for _, it := range items {
		if it.Deadline > 0 {
			n++
		}
	}
	return n
}

// KeyMultisetHash is the reproducibility witness of a plan: the hex
// SHA-256 over the sorted multiset of submitted content keys. Two runs
// with the same Mix produce the same hash; any change to the synthesis
// logic, the spec canonicalization or the RNG shows up here.
func KeyMultisetHash(items []Item) string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// planDuplicates counts the planned duplicate submissions.
func planDuplicates(items []Item) int {
	n := 0
	for _, it := range items {
		if it.Duplicate {
			n++
		}
	}
	return n
}

// distinctKeys counts the unique content keys in the plan.
func distinctKeys(items []Item) int {
	seen := make(map[string]struct{}, len(items))
	for _, it := range items {
		seen[it.Key] = struct{}{}
	}
	return len(seen)
}
