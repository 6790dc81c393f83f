package loadgen

import (
	"fmt"
	"math"
)

// SLO is the pass/fail contract a load run is gated on: accounting,
// hash consistency and hygiene. Speed is not its business — latency and
// throughput are measured by benchmark/run.sh. The duplicate-rate
// tolerance defaults to 0.02 absolute.
type SLO struct {
	// DuplicateRateTolerance is the allowed absolute deviation between
	// the observed coalesced+cached rate and the planned duplicate rate.
	DuplicateRateTolerance float64 `json:"duplicateRateTolerance,omitempty"`
	// AllowSuspended accepts suspended terminal states (soak cycles
	// drain the server on purpose; a plain load run treats suspension
	// as a lost job).
	AllowSuspended bool `json:"allowSuspended,omitempty"`
	// CheckLeaks asserts the service came out of the run clean: no
	// orphaned workers (in-flight and queue depth drained to zero) and
	// no goroutine growth beyond slack. The cancellation storm sets it;
	// it requires the runner to snapshot /healthz before and after.
	CheckLeaks bool `json:"checkLeaks,omitempty"`
}

func (s SLO) withDefaults() SLO {
	if s.DuplicateRateTolerance <= 0 {
		s.DuplicateRateTolerance = 0.02
	}
	return s
}

// Assertion is one pass/fail SLO check with its evidence.
type Assertion struct {
	Name   string `json:"name"`
	Ok     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report is the machine-readable outcome of one load run. Every field
// a CI gate needs is here; Pass is the conjunction of all assertions.
type Report struct {
	// Workload identity.
	Seed            int64   `json:"seed"`
	Mode            string  `json:"mode"`
	Jobs            int     `json:"jobs"`
	Concurrency     int     `json:"concurrency,omitempty"`
	RateHz          float64 `json:"rateHz,omitempty"`
	KeyMultisetHash string  `json:"keyMultisetHash"`
	DistinctKeys    int     `json:"distinctKeys"`

	// Planned vs observed duplicate mix.
	PlannedDuplicates     int     `json:"plannedDuplicates"`
	PlannedDuplicateRate  float64 `json:"plannedDuplicateRate"`
	ObservedDuplicateRate float64 `json:"observedDuplicateRate"`
	// PlannedCancels counts the submissions the runner cancelled at a
	// seeded lifecycle point; each must land cancelled (Cancelled) or —
	// when the cancel lost the race — done (CancelRacedDone).
	PlannedCancels int `json:"plannedCancels,omitempty"`
	// PlannedHangJobs counts the hang submissions; each must be
	// preempted by the server watchdog (HangPreempted).
	PlannedHangJobs int `json:"plannedHangJobs,omitempty"`
	// PlannedDeadlineJobs counts the unmeetable-deadline submissions;
	// each must be killed by enforcement — DeadlineExceeded after
	// admission or DeadlineRejected at the door — never completed.
	PlannedDeadlineJobs int `json:"plannedDeadlineJobs,omitempty"`

	// Submission outcomes.
	Submitted     int `json:"submitted"`
	Accepted      int `json:"accepted"`
	Coalesced     int `json:"coalesced"`
	Cached        int `json:"cached"`
	SubmitRetries int `json:"submitRetries"`
	Rejected      int `json:"rejected"`

	// Terminal outcomes.
	Done           int `json:"done"`
	Failed         int `json:"failed"`
	Suspended      int `json:"suspended"`
	Interrupted    int `json:"interrupted"`
	TimedOut       int `json:"timedOut"`
	HashMismatches int `json:"hashMismatches"`
	HashedKeys     int `json:"hashedKeys"`
	// Cancellation and enforcement outcomes. CancelRacedDone counts
	// planned cancels that lost the race to completion (legitimate);
	// CancelCollateral counts coalesced duplicates that were terminated
	// because another item cancelled their shared primary job (reported,
	// never a failure).
	Cancelled        int `json:"cancelled,omitempty"`
	CancelRacedDone  int `json:"cancelRacedDone,omitempty"`
	CancelCollateral int `json:"cancelCollateral,omitempty"`
	HangPreempted    int `json:"hangPreempted,omitempty"`
	DeadlineExceeded int `json:"deadlineExceeded,omitempty"`
	DeadlineRejected int `json:"deadlineRejected,omitempty"`

	// Service hygiene, populated when SLO.CheckLeaks is set: goroutine
	// counts from /healthz before the run and after a post-run settle,
	// plus the pool's final in-flight and queue-depth gauges.
	GoroutinesBefore int `json:"goroutinesBefore,omitempty"`
	GoroutinesAfter  int `json:"goroutinesAfter,omitempty"`
	FinalInFlight    int `json:"finalInFlight"`
	FinalQueueDepth  int `json:"finalQueueDepth"`

	WallSeconds float64 `json:"wallSeconds"`

	Assertions []Assertion `json:"assertions"`
	Pass       bool        `json:"pass"`
}

// evaluate runs the SLO assertions over the collected outcomes and
// fills Assertions/Pass.
func (r *Report) evaluate(slo SLO) {
	slo = slo.withDefaults()
	add := func(name string, ok bool, format string, args ...any) {
		r.Assertions = append(r.Assertions, Assertion{
			Name: name, Ok: ok, Detail: fmt.Sprintf(format, args...),
		})
	}

	lost := r.Rejected + r.TimedOut + r.Interrupted
	if !slo.AllowSuspended {
		lost += r.Suspended
	}
	add("zero-lost-jobs", lost == 0,
		"rejected=%d timedOut=%d interrupted=%d suspended=%d (allowSuspended=%v)",
		r.Rejected, r.TimedOut, r.Interrupted, r.Suspended, slo.AllowSuspended)
	add("zero-failed-jobs", r.Failed == 0, "failed=%d", r.Failed)
	if r.PlannedCancels > 0 && !slo.AllowSuspended {
		// Best-effort cancellation has exactly two legitimate endings per
		// planned cancel: the job lands cancelled, or completion won the
		// race and it lands done. Anything else means a cancel was lost.
		add("cancel-accounting", r.Cancelled+r.CancelRacedDone == r.PlannedCancels,
			"cancelled=%d + racedDone=%d of %d planned cancels (collateral coalesced terminations: %d)",
			r.Cancelled, r.CancelRacedDone, r.PlannedCancels, r.CancelCollateral)
	}
	if r.PlannedHangJobs > 0 && !slo.AllowSuspended {
		add("hang-containment", r.HangPreempted == r.PlannedHangJobs,
			"hangPreempted=%d of %d planned hang jobs were watchdog-preempted",
			r.HangPreempted, r.PlannedHangJobs)
	}
	if r.PlannedDeadlineJobs > 0 && !slo.AllowSuspended {
		add("deadline-enforcement", r.DeadlineExceeded+r.DeadlineRejected == r.PlannedDeadlineJobs,
			"deadlineExceeded=%d + fastRejected=%d of %d planned unmeetable-deadline jobs",
			r.DeadlineExceeded, r.DeadlineRejected, r.PlannedDeadlineJobs)
	}
	if slo.CheckLeaks {
		add("zero-orphaned-workers", r.FinalInFlight == 0 && r.FinalQueueDepth == 0,
			"post-run inFlight=%d queueDepth=%d (all cancelled/killed work released its worker)",
			r.FinalInFlight, r.FinalQueueDepth)
		// Goroutine counts are noisy (GC workers, connection pools), so
		// the gate allows fixed slack over the pre-run baseline; a real
		// per-job leak in a storm of dozens of jobs blows far past it.
		const slack = 16
		add("no-goroutine-leak", r.GoroutinesAfter <= r.GoroutinesBefore+slack,
			"goroutines before=%d after=%d (slack %d)",
			r.GoroutinesBefore, r.GoroutinesAfter, slack)
	}
	add("hash-consistency", r.HashMismatches == 0,
		"mismatches=%d over %d hashed keys", r.HashMismatches, r.HashedKeys)

	dev := math.Abs(r.ObservedDuplicateRate - r.PlannedDuplicateRate)
	add("duplicate-rate", dev <= slo.DuplicateRateTolerance,
		"observed coalesced+cached rate %.4f vs planned %.4f (|Δ|=%.4f, tol %.4f)",
		r.ObservedDuplicateRate, r.PlannedDuplicateRate, dev, slo.DuplicateRateTolerance)

	r.Pass = true
	for _, a := range r.Assertions {
		if !a.Ok {
			r.Pass = false
		}
	}
}
