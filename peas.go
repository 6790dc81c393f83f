// Package peas is a Go implementation and evaluation harness for PEAS
// (Probing Environment and Adaptive Sleeping), the robust energy-conserving
// protocol for long-lived sensor networks by Ye, Zhong, Cheng, Lu and
// Zhang (ICDCS 2003).
//
// PEAS extends a sensor network's lifetime by keeping only a necessary set
// of nodes working and putting the rest to sleep. Sleeping nodes wake up
// at exponentially distributed intervals, PROBE their neighborhood within
// a probing range Rp, and go back to sleep if any working node REPLYs;
// otherwise they start working until they die. Working nodes measure the
// aggregate probing rate of their sleeping neighbors and feed it back in
// REPLYs so each sleeper tunes its wakeup rate toward a desired aggregate
// rate λd — all without any per-neighbor state.
//
// The package offers three layers:
//
//   - a deterministic packet-level simulator (NewNetwork / Run) with the
//     paper's Motes-like radio and battery models, coverage and
//     connectivity analysis, failure injection, and a GRAB-like data
//     delivery workload;
//   - the full evaluation harness (DeploymentSweep, FailureSweep, and the
//     §2-§4 studies) regenerating every figure and table of the paper;
//   - a live runtime (package peasnet) running the same protocol state
//     machine as the simulator over a pluggable transport; each node is
//     serialized by its lock, and its calls arrive on timer and transport
//     goroutines.
//
// # Quick start
//
//	cfg := peas.DefaultRunConfig(160, 1)
//	res, err := peas.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("4-coverage lifetime: %.0f s\n", res.CoverageLifetime[3])
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package peas

import (
	"io"

	"peas/internal/chaos"
	"peas/internal/checkpoint"
	"peas/internal/core"
	"peas/internal/energy"
	"peas/internal/experiment"
	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/oracle"
	"peas/internal/radio"
	"peas/internal/render"
	"peas/internal/sensing"
	"peas/internal/stats"
	"peas/internal/trace"
)

// Aliases re-exporting the library's public surface. Users build against
// these names; the internal packages stay free to reorganize.
type (
	// ProtocolConfig holds the PEAS protocol parameters (Rp, λ0, λd,
	// estimator k, probe count, probe window, turn-off extension).
	ProtocolConfig = core.Config
	// NetworkConfig describes a simulated deployment: field, node count,
	// protocol, radio, energy model and seed.
	NetworkConfig = node.Config
	// RadioConfig holds the physical-layer parameters.
	RadioConfig = radio.Config
	// EnergyProfile holds per-mode power draws in watts.
	EnergyProfile = energy.Profile
	// Network is a deployed, runnable simulated sensor network.
	Network = node.Network
	// Node is one simulated sensor.
	Node = node.Node
	// Observer is a set of optional hooks on a network's node events
	// (state changes, deaths, revivals, deliveries, working-set flips);
	// subscribe one with Network.Observe.
	Observer = node.Observer
	// RunConfig configures one full evaluation run (network + failures +
	// workload + metrics).
	RunConfig = experiment.RunConfig
	// RunStats carries every metric a run produces.
	RunStats = experiment.RunStats
	// SweepOptions parameterizes the paper-figure sweeps.
	SweepOptions = experiment.Options
	// Table is a printable experiment result.
	Table = experiment.Table
	// Experiment is one entry of the paper's evaluation: an id, the part
	// of the paper it reproduces and the function regenerating its Table.
	Experiment = experiment.Experiment
	// ExperimentEnv is what an Experiment runs under: SweepOptions, the
	// Quick switch and the sweeps already computed through it, which the
	// figures plotting one sweep share.
	ExperimentEnv = experiment.Env
	// Point is a position in the field, in meters.
	Point = geom.Point
	// Field is a rectangular deployment area.
	Field = geom.Field
	// State is a node operation mode.
	State = core.State
	// NodeID identifies a node.
	NodeID = core.NodeID
)

// Checkpoint is a versioned full-state snapshot of a run: node state
// machines, batteries, RNG streams, pending timers, the failure schedule
// and the metric series. Capture them via RunConfig.CheckpointEvery /
// OnCheckpoint, persist with Checkpoint.Encode, and continue a run via
// RunConfig.Resume.
type Checkpoint = checkpoint.Snapshot

// DecodeCheckpoint reads a snapshot in the canonical binary format, as
// written by Checkpoint.Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) { return checkpoint.Decode(r) }

// InvariantChecker is a read-only runtime oracle watching a live run for
// protocol and physics violations: energy-ledger conservation, radio
// discipline of sleeping/dead nodes, redundant-worker resolution, timer
// monotonicity and battery/lifecycle agreement. Attach one with
// AttachChecker; it never perturbs the simulation (the run's StateHash is
// bit-identical with and without it). cmd/peas-sim exposes it as -check.
type InvariantChecker = oracle.Checker

// InvariantConfig tunes the oracle's scan interval, tolerances and
// violation cap.
type InvariantConfig = oracle.Config

// InvariantViolation is one detected contract breach, timestamped in
// simulated seconds.
type InvariantViolation = oracle.Violation

// DefaultInvariantConfig returns the oracle defaults used by -check.
func DefaultInvariantConfig() InvariantConfig { return oracle.DefaultConfig() }

// AttachChecker arms the runtime invariant oracle on a network that has
// not started yet (e.g. from RunConfig.OnNetwork).
func AttachChecker(net *Network, cfg InvariantConfig) *InvariantChecker {
	return oracle.Attach(net, cfg)
}

// ChainVerifyResult reports a multi-boundary checkpoint differential
// verification; see VerifyCheckpointChain.
type ChainVerifyResult = oracle.ChainResult

// VerifyCheckpointChain runs cfg once, snapshots every `every` simulated
// seconds, then resumes from every boundary, pushed through the binary
// codec, and requires each resumed run to reach the direct run's exact
// final StateHash. cmd/peas-sim's -check runs it with a boundary every
// quarter horizon, on the run as described before its own trace and
// oracle are attached: Trace and OnNetwork pass on to every resumed leg.
func VerifyCheckpointChain(cfg RunConfig, every float64) (*ChainVerifyResult, error) {
	return oracle.VerifyChain(cfg, every)
}

// ChaosPlan is a scripted fault-injection campaign: a seed plus an event
// schedule drawn from one fault vocabulary (loss, bursty loss,
// duplication, reordering, delay, partitions, fail-stop, fail-recover,
// crash-restart). Attach one to a run via RunConfig.Chaos; same plan +
// same seed reproduces the same faults at the same instants.
type ChaosPlan = chaos.Plan

// ChaosEvent is one scripted fault in a ChaosPlan.
type ChaosEvent = chaos.Event

// FaultClass names one kind of injectable fault.
type FaultClass = chaos.FaultClass

// LoadChaosPlan reads and validates a JSON chaos plan.
func LoadChaosPlan(path string) (*ChaosPlan, error) { return chaos.Load(path) }

// MixedChaosPlan returns the built-in campaign exercising every fault
// class within the given horizon. peas-sim runs it as -chaos-plan mixed.
func MixedChaosPlan(horizon float64, seed int64) *ChaosPlan {
	return chaos.MixedPlan(horizon, seed)
}

// TraceRecorder buffers structured simulation events (state changes,
// deaths, frame deliveries); attach one via RunConfig.Trace and stream it
// with WriteJSONL.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded simulation event.
type TraceEvent = trace.Event

// NewTraceRecorder returns a recorder keeping at most limit events
// (0 = unlimited).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// Target is a mobile point following a random-waypoint trajectory, used
// by the sensing workload.
type Target = sensing.Target

// SensingTracker measures detection latency and exposure of mobile
// targets against the working set.
type SensingTracker = sensing.Tracker

// SensingReport summarizes target-tracking quality.
type SensingReport = sensing.Report

// NewSensingTracker creates count random-waypoint targets at the given
// speed and tracks their detection by working nodes within sensingRange.
func NewSensingTracker(field Field, sensingRange float64, count int, speed float64, seed int64) *SensingTracker {
	return sensing.NewTracker(field, sensingRange, count, speed, stats.NewRNG(seed))
}

// SVGOptions controls RenderSVG snapshots.
type SVGOptions = render.SVGOptions

// RenderASCII draws the network as a character map, one cell per `cell`
// meters ('W' working, 's' sleeping, 'p' probing, 'x' dead).
func RenderASCII(net *Network, cell float64) string { return render.ASCII(net, cell) }

// RenderSVG writes a vector snapshot of the network with optional
// sensing-coverage discs.
func RenderSVG(w io.Writer, net *Network, opts SVGOptions) error {
	return render.SVG(w, net, opts)
}

// Node operation modes (paper Figure 1), plus the terminal Dead state.
const (
	Sleeping = core.Sleeping
	Probing  = core.Probing
	Working  = core.Working
	Dead     = core.Dead
)

// DefaultProtocolConfig returns the paper's protocol parameters:
// Rp = 3 m, λ0 = 0.1/s, λd = 0.02/s, k = 32, 3 PROBEs over a 100 ms window,
// 25-byte packets.
func DefaultProtocolConfig() ProtocolConfig { return core.DefaultConfig() }

// DefaultNetworkConfig returns the paper's evaluation deployment for n
// nodes: a 50x50 m field, uniform placement, Motes-like radio and battery.
func DefaultNetworkConfig(n int, seed int64) NetworkConfig {
	return node.DefaultConfig(n, seed)
}

// DefaultRunConfig returns a full evaluation run at the paper's base
// failure rate with the data-delivery workload enabled.
func DefaultRunConfig(n int, seed int64) RunConfig {
	return RunConfig{
		Network:          node.DefaultConfig(n, seed),
		FailuresPer5000s: experiment.BaseFailuresPer5000,
		Forwarding:       true,
	}
}

// NewNetwork deploys a simulated network. Use it directly for custom
// scenarios; use Run for the paper's standard metrics. A network built
// here is the caller's for good: nothing recycles it unless the caller
// calls its Release.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return node.NewNetwork(cfg) }

// Run executes one simulation run and gathers coverage lifetimes, data
// delivery lifetime, wakeup counts and energy overhead. The run is built
// into storage an earlier run released, when there is one, and hands its
// own back when it returns: the *Network its hooks see is borrowed until
// Run returns, so a hook copies out what must outlive the run. The
// returned RunStats, its FinalState and every checkpoint snapshot belong
// to the caller.
func Run(cfg RunConfig) (*RunStats, error) { return experiment.Run(cfg) }

// DeploymentSweep reproduces the varying-population experiment behind
// Figures 9, 10, 11 and Table 1.
func DeploymentSweep(opts SweepOptions) (*experiment.DeploymentSweepResult, error) {
	return experiment.DeploymentSweep(opts)
}

// FailureSweep reproduces the robustness experiment behind Figures 12-14.
func FailureSweep(opts SweepOptions) (*experiment.FailureSweepResult, error) {
	return experiment.FailureSweep(opts)
}

// Experiments returns every experiment of the evaluation in the order
// peas-bench prints them: Figures 9-14 and Table 1 of §5, then the §2-§4
// analyses and the implementation's own cross-checks.
func Experiments() []Experiment { return experiment.Experiments() }

// DefaultSweepOptions returns the paper's full evaluation setup
// (deployments 160-800, failure rates 5.33-48 per 5000 s, 5 runs each).
func DefaultSweepOptions() SweepOptions { return experiment.DefaultOptions() }
