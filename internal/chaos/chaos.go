// Package chaos is a deterministic, scripted fault-injection engine for
// the PEAS reproduction. It drives one fault vocabulary against both
// substrates — the discrete-event simulator (channel faults through
// internal/radio's fault hook; node faults struck by Controller.strike,
// with rate events timed by internal/failure's §5.2 arrival loop) and the
// live runtime (package peasnet) —
// so robustness claims can be exercised under the same fault classes the
// paper's §5.2 methodology and the related duty-cycling literature
// (bursty loss, node churn) call for:
//
//   - message loss: uniform i.i.d. and Gilbert-Elliott bursty;
//   - duplication, reordering, and bounded extra delay;
//   - network partitions with heal;
//   - node faults beyond fail-stop: transient fail-recover with
//     configurable downtime, and crash-restart that resumes a node from
//     the protocol state captured at the crash instant.
//
// Everything is a pure function of a plan and a seed: per-frame fault
// decisions come from a dedicated stats.RNG stream, victim selection from
// another, and all scheduling goes through the owning substrate's clock.
// Same plan + same seed ⇒ the same faults at the same instants, which is
// what makes a chaos campaign's final state hash reproducible.
//
// Every fault fired is counted per class through a metrics.Counters set,
// so a campaign can prove each class actually exercised the system
// rather than silently doing nothing.
package chaos

// FaultClass names one kind of injectable fault. Plan events carry a
// class; counters are keyed by the class's counter name.
type FaultClass string

// The fault vocabulary.
const (
	// Loss drops each delivery independently with a fixed probability.
	Loss FaultClass = "loss"
	// BurstLoss drops deliveries through a two-state Gilbert-Elliott
	// channel: a Markov chain alternating good/bad states with separate
	// loss probabilities, producing the bursty loss real radios exhibit.
	BurstLoss FaultClass = "burst-loss"
	// Duplicate delivers extra copies of a frame, as retransmitting link
	// layers do.
	Duplicate FaultClass = "dup"
	// Reorder delays selected frames enough to land behind frames
	// transmitted later.
	Reorder FaultClass = "reorder"
	// Delay adds bounded extra latency to selected deliveries.
	Delay FaultClass = "delay"
	// Partition splits the nodes into groups that cannot hear each
	// other; the event's end time heals the partition.
	Partition FaultClass = "partition"
	// FailStop kills nodes permanently (the paper's §5.2 failure model).
	FailStop FaultClass = "fail-stop"
	// FailRecover crashes nodes transiently: volatile state is lost, the
	// battery survives, and the node reboots after a configured downtime.
	FailRecover FaultClass = "fail-recover"
	// CrashRestart crashes a node and later resumes it in place from its
	// protocol state and pending timers captured at the crash instant;
	// its RNG stream and battery run on through the downtime. The live
	// runtime's Cluster.CrashRestart has the same semantics.
	CrashRestart FaultClass = "crash-restart"
)

// Counter names, shared by both substrates so CLI summaries render
// uniformly. Drop counters split by cause; node-fault counters count
// injections and completed recoveries separately.
const (
	CtrDropLoss      = "drop.loss"
	CtrDropBurst     = "drop.burst"
	CtrDropPartition = "drop.partition"
	CtrDup           = "dup"
	CtrReorder       = "reorder"
	CtrDelay         = "delay"
	CtrFailStop      = "fail.stop"
	CtrFailRecover   = "fail.recover"
	CtrRecovered     = "recovered"
	CtrCrash         = "crash"
	CtrRestarted     = "restarted"
)

// CounterFor returns the counter name that proves the given fault class
// fired end to end. Recovery-style classes map to their completion
// counter: an injected crash whose node never came back did not exercise
// the class.
func CounterFor(class FaultClass) string {
	switch class {
	case Loss:
		return CtrDropLoss
	case BurstLoss:
		return CtrDropBurst
	case Duplicate:
		return CtrDup
	case Reorder:
		return CtrReorder
	case Delay:
		return CtrDelay
	case Partition:
		return CtrDropPartition
	case FailStop:
		return CtrFailStop
	case FailRecover:
		return CtrRecovered
	case CrashRestart:
		return CtrRestarted
	default:
		return string(class)
	}
}

// Unexercised returns the fault classes among classes whose completion
// counter is still zero in counts, a snapshot of the fault counters such as
// RunStats.Chaos. A strict campaign fails when any planned class went
// unexercised.
func Unexercised(classes []FaultClass, counts map[string]uint64) []FaultClass {
	var missing []FaultClass
	for _, cl := range classes {
		if counts[CounterFor(cl)] == 0 {
			missing = append(missing, cl)
		}
	}
	return missing
}
