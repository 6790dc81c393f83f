// Package api defines the wire types of the simulation service. Both
// the HTTP server (internal/server) and the typed client
// (internal/client) speak these, so they live in a leaf package with no
// transport dependencies.
package api

import (
	"time"

	"peas/internal/buildinfo"
	"peas/internal/jobqueue"
)

// SubmitRequest is the POST /api/v1/jobs body: the job spec itself.
// See jobqueue.Spec for the schema; a minimal body is
// {"network":{"N":160,"Seed":1}}.
type SubmitRequest = jobqueue.Spec

// JobInfo is the serialized view of one job.
type JobInfo struct {
	ID    string         `json:"id"`
	Key   string         `json:"key"`
	Kind  string         `json:"kind"`
	State jobqueue.State `json:"state"`
	// N, Seed and Horizon summarize the spec for listings.
	N       int     `json:"n"`
	Seed    int64   `json:"seed"`
	Horizon float64 `json:"horizon"`
	// SimT and Working are the last observed progress sample.
	SimT    float64 `json:"simT,omitempty"`
	Working int     `json:"working,omitempty"`
	// QueueWaitSeconds is the admission-to-start delay (the wait so far
	// for jobs still queued, admission to end for one stopped in the queue;
	// absent for cached submissions).
	QueueWaitSeconds float64 `json:"queueWaitSeconds,omitempty"`
	// DeadlineSeconds echoes the submission's end-to-end budget (absent
	// when unbounded).
	DeadlineSeconds float64 `json:"deadlineSeconds,omitempty"`
	// CancelRequested reports that a stop (cancel, deadline or watchdog)
	// has been requested; the job may still be draining toward its
	// terminal state.
	CancelRequested bool `json:"cancelRequested,omitempty"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// Result is set on done jobs.
	Result *jobqueue.Result `json:"result,omitempty"`

	EnqueuedAt time.Time  `json:"enqueuedAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// SubmitResponse answers a submission.
type SubmitResponse struct {
	// Outcome is "accepted", "coalesced" or "cached".
	Outcome jobqueue.Outcome `json:"outcome"`
	Job     JobInfo          `json:"job"`
}

// Machine-readable rejection codes carried by ErrorResponse.Code, so
// clients can branch without parsing error strings.
const (
	// CodeQueueFull: admission rejected, queue at capacity (429).
	CodeQueueFull = "queue_full"
	// CodeDeadlineInfeasible: the observed queue-wait distribution says
	// the job's deadline would expire before a worker picks it up (429).
	CodeDeadlineInfeasible = "deadline_infeasible"
	// CodePersistFailed: the spec could not be fsynced at admission, so
	// the job was rolled back rather than accepted unrecoverably (503).
	CodePersistFailed = "persist_failed"
	// CodeShuttingDown: the server is draining and admits no new work;
	// retry against the next boot (503).
	CodeShuttingDown = "shutting_down"
)

// ErrorResponse is the JSON error body for every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code classifies machine-actionable rejections (see the Code*
	// constants); empty for generic errors.
	Code string `json:"code,omitempty"`
	// RetryAfterSeconds accompanies 429/503 responses (also sent as the
	// Retry-After header).
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// CancelResponse answers DELETE /api/v1/jobs/{id}.
type CancelResponse struct {
	// Requested reports whether this call actually initiated a stop:
	// false when the job was already terminal or already stopping
	// (cancellation is idempotent, so the response is still 2xx).
	Requested bool    `json:"requested"`
	Job       JobInfo `json:"job"`
}

// JobListResponse answers GET /api/v1/jobs.
type JobListResponse struct {
	Jobs []JobInfo `json:"jobs"`
}

// ResultResponse answers GET /api/v1/results/{key}.
type ResultResponse struct {
	Key    string           `json:"key"`
	Result *jobqueue.Result `json:"result"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status string         `json:"status"`
	Build  buildinfo.Info `json:"build"`
	// UptimeSeconds is time since the server booted.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	QueueDepth    int     `json:"queueDepth"`
	InFlight      int     `json:"inFlight"`
	Workers       int     `json:"workers"`
	// Goroutines is the process goroutine count — the cancellation-storm
	// harness watches it to prove cancelled work does not leak goroutines.
	Goroutines int `json:"goroutines"`
	// JobsRecovered counts jobs re-admitted from the state dir since
	// boot; JobsQuarantined counts damaged persisted jobs set aside into
	// the quarantine directory instead of recovered. A non-zero
	// quarantine count means the state dir holds files an operator
	// should inspect — the service itself stays healthy.
	JobsRecovered   uint64 `json:"jobsRecovered"`
	JobsQuarantined uint64 `json:"jobsQuarantined"`
}
