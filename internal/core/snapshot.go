package core

// This file defines the serializable view of a Protocol instance used by
// the checkpoint/restore subsystem (internal/checkpoint). A snapshot is
// taken at a quiescent event boundary: the state machine's fields are
// plain data, and the pending timers — pooled records armed on the
// platform — are captured as (kind, probe, deadline) records that
// ResumeTimers re-arms after a restore.

// TimerKind identifies one of the protocol's pending timer types.
type TimerKind uint8

// Pending timer kinds.
const (
	// TimerWakeup ends a sleep period and begins a probe round.
	TimerWakeup TimerKind = iota + 1
	// TimerProbeSend transmits one of the NumProbes PROBE copies.
	TimerProbeSend
	// TimerProbeEnd closes the probe window.
	TimerProbeEnd
	// TimerReply transmits the backed-off REPLY of a working node.
	TimerReply
)

// TimerRec is one pending protocol timer, re-expressed as plain data.
type TimerRec struct {
	Kind TimerKind
	// Probe is the PROBE copy sequence number (TimerProbeSend only).
	Probe int
	// At is the absolute simulation-time deadline.
	At float64
}

// EstimatorState is the serializable state of a RateEstimator.
type EstimatorState struct {
	N        int
	T0       float64
	Started  bool
	Estimate float64
	Windows  int
}

// ProtocolState is the serializable state of one protocol instance: the
// Figure 1 mode, the Adaptive Sleeping rate, the estimator, the REPLYs
// heard in the current probe window, the cumulative counters, and the
// pending timers.
type ProtocolState struct {
	State        State
	StateSince   float64
	Lambda       float64
	WorkStart    float64
	ReplyPending bool
	Heard        []Reply
	Stats        Stats
	Estimator    EstimatorState
	Timers       []TimerRec
}

// Snapshot captures the protocol state as plain data. It does not mutate
// the instance, so taking a checkpoint cannot perturb the trajectory.
func (p *Protocol) Snapshot() ProtocolState {
	return ProtocolState{
		State:        p.state,
		StateSince:   p.stateSince,
		Lambda:       p.lambda,
		WorkStart:    p.workStart,
		ReplyPending: p.replyPending,
		Heard:        append([]Reply(nil), p.heard...),
		Stats:        p.stats,
		Estimator: EstimatorState{
			N:        p.estimator.n,
			T0:       p.estimator.t0,
			Started:  p.estimator.started,
			Estimate: p.estimator.estimate,
			Windows:  p.estimator.windows,
		},
		Timers: append([]TimerRec(nil), p.timers...),
	}
}

// RestoreState overwrites a freshly constructed protocol with a captured
// state. It deliberately bypasses enter(): the platform's SetState side
// effects (battery mode, death scheduling) are restored separately by the
// owning layer. Pending timers are NOT re-armed here — call ResumeTimers
// once the platform clock is positioned at the snapshot time.
func (p *Protocol) RestoreState(st ProtocolState) {
	p.state = st.State
	p.stateSince = st.StateSince
	p.lambda = st.Lambda
	p.workStart = st.WorkStart
	p.replyPending = st.ReplyPending
	p.heard = append(p.heard[:0], st.Heard...)
	p.stats = st.Stats
	p.estimator.n = st.Estimator.N
	p.estimator.t0 = st.Estimator.T0
	p.estimator.started = st.Estimator.Started
	p.estimator.estimate = st.Estimator.Estimate
	p.estimator.windows = st.Estimator.Windows
	p.timers = p.timers[:0]
}

// ResumeTimers re-arms the captured pending timers on the platform, in
// their recorded order, at their exact recorded deadlines. The
// records are self-describing — dispatch maps Kind back to the action —
// so resuming is just re-arming each one.
func (p *Protocol) ResumeTimers(timers []TimerRec) {
	for _, rec := range timers {
		p.scheduleTimer(rec)
	}
}
