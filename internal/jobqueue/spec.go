// Package jobqueue turns the one-shot experiment runner into a
// long-running, multi-tenant execution substrate: a bounded FIFO queue
// feeding a fixed worker pool, with admission control (a full queue
// rejects immediately with a retry hint instead of blocking), in-flight
// coalescing (identical submissions attach to one underlying run), and a
// content-addressed result cache keyed by the canonical checkpoint-codec
// encoding of the job configuration. Because the engine is bit-exact
// deterministic — equal configs produce equal StateHash — a cached
// result is indistinguishable from a fresh run, which is what makes the
// cache safe.
//
// The package is transport-agnostic; internal/server exposes it over
// HTTP/JSON with SSE event streaming, and cmd/peas-serve is the binary.
package jobqueue

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"peas/internal/chaos"
	"peas/internal/checkpoint"
	"peas/internal/experiment"
	"peas/internal/node"
)

// Spec kinds. An empty kind defaults to KindSim, or to KindChaos when a
// chaos plan is present.
const (
	KindSim   = "sim"
	KindChaos = "chaos"
)

// specKeyVersion is bumped whenever the canonical spec encoding changes,
// so stale persisted state can never alias a new-format key.
// v2: the Panic fault-injection flag joined the encoding.
// v3: the Hang fault-injection flag joined the encoding.
// v4: the sweep section and both fault-injection flags left it.
const specKeyVersion uint32 = 4

// Spec is one job submission: the full network configuration plus the
// experiment-level knobs. It is the unit the cache key is derived from,
// so every field that influences the simulation outcome must be covered
// by the canonical encoding in Key.
type Spec struct {
	// Kind selects the job type: "sim" (default) or "chaos".
	Kind string `json:"kind,omitempty"`
	// Network is the deployment configuration. Zero-valued sections
	// (field, protocol, radio, energy profile, initial charge) are
	// filled with the paper's defaults by Normalize, so a minimal
	// submission only needs N and Seed; a partly filled section is
	// refused.
	Network node.Config `json:"network"`
	// FailuresPer5000s is the injected failure rate in the paper's unit.
	FailuresPer5000s float64 `json:"failuresPer5000s,omitempty"`
	// Horizon bounds the simulated seconds (0 = deployment-proportional
	// default; Normalize resolves it so the cache key is explicit).
	Horizon float64 `json:"horizon,omitempty"`
	// Forwarding enables the source/sink data workload.
	Forwarding bool `json:"forwarding,omitempty"`
	// CoverageSpacing is the coverage lattice spacing in meters (0 = 1;
	// Normalize writes an explicit 1 as 0). Its lattice over the field may
	// hold at most maxLatticePoints points.
	CoverageSpacing float64 `json:"coverageSpacing,omitempty"`
	// Check arms the runtime invariant oracle; any violation fails the
	// job.
	Check bool `json:"check,omitempty"`
	// Chaos attaches a scripted fault plan (KindChaos).
	Chaos *chaos.Plan `json:"chaos,omitempty"`
	// DeadlineSeconds, when positive, bounds the job end to end: the
	// budget starts at admission, and a job that has not finished when it
	// expires is preempted into the deadline_exceeded state (running
	// checkpointable work parks a resumable snapshot first). It is a
	// scheduling constraint, not a simulation input, so it is EXCLUDED
	// from the content key — two submissions differing only in deadline
	// mean the same run and must coalesce/cache-hit onto one result.
	DeadlineSeconds float64 `json:"deadlineSeconds,omitempty"`
}

// NewSimSpec returns a plain simulation spec with the paper's default
// configuration for n nodes.
func NewSimSpec(n int, seed int64) *Spec {
	return &Spec{
		Kind:             KindSim,
		Network:          node.DefaultConfig(n, seed),
		FailuresPer5000s: experiment.BaseFailuresPer5000,
	}
}

// DecodeSpec reads one JSON job spec strictly: a field Spec does not
// know is an error, and so is anything after the one JSON value. It is
// the door for every spec a user writes — the HTTP submission body and
// peas-sim -config alike — so a misspelled key is refused instead of
// silently running the defaults. A read error (an *http.MaxBytesError,
// say) stays reachable through errors.As.
func DecodeSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return nil, fmt.Errorf("data after the job spec: %w", err)
	}
	return &s, nil
}

// Normalize fills defaults in place so that two submissions that mean
// the same simulation produce the same canonical encoding: the kind is
// resolved, zero-valued configuration sections take the paper defaults,
// the horizon is made explicit, and an explicit 1 m coverage spacing is
// written as its default 0. It returns an error for invalid
// specs (these are rejected at admission, before anything is persisted):
// an unknown kind, a kind its chaos plan contradicts, a network
// node.Config.Validate refuses — a partly filled section is refused, not
// completed field by field — a bad deadline, a coverage spacing that is
// negative or too fine for the field, or an invalid chaos plan.
func (s *Spec) Normalize() error {
	switch s.Kind {
	case "":
		s.Kind = KindSim
		if s.Chaos != nil {
			s.Kind = KindChaos
		}
	case KindSim, KindChaos:
	default:
		return fmt.Errorf("jobqueue: unknown job kind %q", s.Kind)
	}
	if s.Kind == KindChaos && s.Chaos == nil {
		return fmt.Errorf("jobqueue: chaos job without a fault plan")
	}
	if s.Kind != KindChaos && s.Chaos != nil {
		return fmt.Errorf("jobqueue: fault plan on a %s job", s.Kind)
	}

	def := node.DefaultConfig(s.Network.N, s.Network.Seed)
	if s.Network.Field.Width <= 0 || s.Network.Field.Height <= 0 {
		s.Network.Field = def.Field
	}
	if s.Network.Protocol == (node.Config{}).Protocol {
		s.Network.Protocol = def.Protocol
	}
	if s.Network.Radio == (node.Config{}).Radio {
		s.Network.Radio = def.Radio
	}
	if s.Network.Energy == (node.Config{}).Energy {
		s.Network.Energy = def.Energy
	}
	if s.Network.InitialEnergyMin == 0 && s.Network.InitialEnergyMax == 0 {
		s.Network.InitialEnergyMin = def.InitialEnergyMin
		s.Network.InitialEnergyMax = def.InitialEnergyMax
	}
	if err := s.Network.Validate(); err != nil {
		return fmt.Errorf("jobqueue: network: %w", err)
	}

	if math.IsNaN(s.DeadlineSeconds) || math.IsInf(s.DeadlineSeconds, 0) || s.DeadlineSeconds < 0 {
		return fmt.Errorf("jobqueue: deadlineSeconds must be a finite non-negative number, got %v", s.DeadlineSeconds)
	}
	if s.Horizon <= 0 {
		s.Horizon = experiment.DefaultHorizon(s.Network.N)
	}
	if err := s.normalizeSpacing(); err != nil {
		return err
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// maxLatticePoints bounds the coverage lattice a spec may ask for: its
// counts take a worker 4 bytes a point, and coverage indexes them as
// int32. The paper's 1 m over a 50 m field is 2,601 points (2,704 of
// capacity).
const maxLatticePoints = 1 << 22

// normalizeSpacing writes an explicit 1 m coverage spacing as 0, its
// default, so the two key alike, and refuses a spacing that is negative,
// not finite, or makes a lattice of more than maxLatticePoints over the
// field.
func (s *Spec) normalizeSpacing() error {
	sp := s.CoverageSpacing
	if math.IsNaN(sp) || math.IsInf(sp, 0) || sp < 0 {
		return fmt.Errorf("jobqueue: coverageSpacing must be a finite non-negative number, got %v", sp)
	}
	if sp == 1 {
		s.CoverageSpacing = 0
	}
	if sp == 0 {
		sp = 1
	}
	f := s.Network.Field
	if n := (f.Width/sp + 2) * (f.Height/sp + 2); n > maxLatticePoints { // the lattice's capacity, as Lattice.Reset sizes it
		return fmt.Errorf("jobqueue: coverageSpacing %v m makes a lattice of %.3g points over the %vx%v m field, over the %d allowed",
			sp, n, f.Width, f.Height, maxLatticePoints)
	}
	return nil
}

// Key returns the content address of the spec: the hex SHA-256 of its
// canonical encoding. The network section reuses the checkpoint codec's
// canonical config encoding (checkpoint.AppendNetConfig); the
// experiment-level knobs are appended with the same fixed-width
// convention; the chaos section is length-prefixed canonical JSON of the
// normalized plan (deterministic in Go for structs without maps). Call
// Normalize first — Key on an unnormalized spec would distinguish
// submissions that mean the same run.
func (s *Spec) Key() string {
	buf := make([]byte, 0, 512)
	buf = append(buf, "PEASJOB\x00"...)
	buf = appendU32(buf, specKeyVersion)
	buf = append(buf, s.Kind...)
	buf = append(buf, 0)
	buf = checkpoint.AppendNetConfig(buf, &s.Network)
	buf = appendF64(buf, s.FailuresPer5000s)
	buf = appendF64(buf, s.Horizon)
	buf = appendBool(buf, s.Forwarding)
	buf = appendF64(buf, s.CoverageSpacing)
	buf = appendBool(buf, s.Check)
	buf = appendJSONSection(buf, s.Chaos != nil, s.Chaos)
	// DeadlineSeconds is deliberately absent: it constrains scheduling,
	// not the simulation, so deadline-differing duplicates share one run.
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// RunConfig translates the spec into the experiment runner's
// configuration. CaptureFinal is always set: the final snapshot's
// StateHash is the identity every cached result carries.
func (s *Spec) RunConfig() experiment.RunConfig {
	return experiment.RunConfig{
		Network:          s.Network,
		FailuresPer5000s: s.FailuresPer5000s,
		Horizon:          s.Horizon,
		Forwarding:       s.Forwarding,
		CoverageSpacing:  s.CoverageSpacing,
		Chaos:            s.Chaos,
		CaptureFinal:     true,
	}
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendJSONSection(buf []byte, present bool, v any) []byte {
	buf = appendBool(buf, present)
	if !present {
		return buf
	}
	data, err := json.Marshal(v)
	if err != nil {
		// Specs are plain data structs; Marshal cannot fail on them.
		panic(fmt.Sprintf("jobqueue: canonical encode: %v", err))
	}
	buf = appendU32(buf, uint32(len(data)))
	return append(buf, data...)
}
