// Package core implements the PEAS protocol itself: the Probing
// Environment and Adaptive Sleeping components of the paper (§2), the
// PROBE/REPLY message exchange, the aggregate probing-rate estimator
// (§2.2), and the robustness extensions of §4 (multi-PROBE loss
// compensation, redundant-worker turn-off, multi-working-neighbor rate
// rule).
//
// The protocol is written against a small Platform interface so the same
// state machine runs unchanged inside the discrete-event simulator
// (internal/node) and the live runtime (peasnet).
package core

import (
	"errors"
	"fmt"
)

// Default protocol parameters from the paper's evaluation (§5.1-5.2).
const (
	// DefaultProbingRange is Rp in meters.
	DefaultProbingRange = 3.0
	// DefaultInitialRate is the boot-time per-node probing rate λ0 in
	// wakeups/second ("0.1 wakeup/sec so that the number of working
	// nodes quickly stabilizes").
	DefaultInitialRate = 0.1
	// DefaultDesiredRate is the desired aggregate probing rate λd in
	// wakeups/second ("0.02 wakeup/sec, a wakeup every 50 seconds
	// perceived by a working node").
	DefaultDesiredRate = 0.02
	// DefaultEstimatorK is the PROBE count threshold k of the λ̂
	// estimator ("we select k = 32 based on experimental studies").
	DefaultEstimatorK = 32
	// DefaultNumProbes is the number of PROBE transmissions per wakeup
	// ("three PROBEs work well against loss rates of up to 10%").
	DefaultNumProbes = 3
	// DefaultProbeWindow is how long a probing node keeps its radio on
	// waiting for REPLYs, in seconds ("waits for 100ms during which
	// working nodes randomly back off to send REPLYs").
	DefaultProbeWindow = 0.100
	// DefaultPacketSize is the PROBE/REPLY frame size in bytes ("the
	// packet size of PROBE and REPLY messages is 25 bytes").
	DefaultPacketSize = 25
)

// Config holds the tunable parameters of one PEAS node.
type Config struct {
	// ProbingRange is Rp: a prober starts working unless a working node
	// exists within this radius. Chosen by the application from its
	// sensing/communication redundancy requirements (§2.1).
	ProbingRange float64
	// InitialRate is λ0, the boot-time probing rate.
	InitialRate float64
	// DesiredRate is λd, the target aggregate probing rate perceived by
	// each working node.
	DesiredRate float64
	// EstimatorK is the PROBE-count threshold of the rate estimator.
	EstimatorK int
	// NumProbes is how many PROBE copies a wakeup transmits, spread over
	// the first half of the probe window (§4 loss compensation).
	NumProbes int
	// ProbeWindow is the listening window after the first PROBE.
	ProbeWindow float64
	// ReplyJitterMax bounds the uniform random backoff a working node
	// applies before sending a REPLY. Zero selects 60% of ProbeWindow,
	// which keeps the latest REPLY plus airtime inside the window.
	ReplyJitterMax float64
	// PacketSize is the PROBE/REPLY size in bytes.
	PacketSize int
	// MinRate and MaxRate clamp the adapted per-node rate λ so a wild
	// estimate cannot freeze a node (sleep ≈ forever) or melt it
	// (continuous probing). Zero selects DesiredRate/1e4 and 1.0.
	MinRate float64
	MaxRate float64
	// TurnoffEnabled activates the §4 extension: a working node that
	// overhears a REPLY from a longer-working neighbor within Rp goes
	// back to sleep.
	TurnoffEnabled bool
	// StaleEstimates makes REPLYs carry the last completed estimator
	// window verbatim, as a literal reading of §2.2 prescribes. This
	// reproduces the Adaptive Sleeping death spiral documented in
	// DESIGN.md §5 (stale boot-time rates drive all sleepers into
	// near-infinite sleep); it exists for the deviation ablation and
	// must stay false in real deployments.
	StaleEstimates bool
}

// DefaultConfig returns the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{
		ProbingRange: DefaultProbingRange,
		InitialRate:  DefaultInitialRate,
		DesiredRate:  DefaultDesiredRate,
		EstimatorK:   DefaultEstimatorK,
		NumProbes:    DefaultNumProbes,
		ProbeWindow:  DefaultProbeWindow,
		PacketSize:   DefaultPacketSize,
		// The §4 error-correction extension is on by default: occasional
		// REPLY losses (collisions, hidden terminals) promote redundant
		// workers, and without the turn-off those errors only accumulate
		// over a long-lived network.
		TurnoffEnabled: true,
	}
}

// ErrInvalidConfig wraps all Config validation failures so callers can
// match them with errors.Is.
var ErrInvalidConfig = errors.New("peas: invalid config")

// Validate normalizes defaults for zero optional fields and reports
// whether the configuration is usable.
func (c *Config) Validate() error {
	if c.ProbingRange <= 0 {
		return fmt.Errorf("%w: probing range %v must be positive", ErrInvalidConfig, c.ProbingRange)
	}
	if c.InitialRate <= 0 {
		return fmt.Errorf("%w: initial rate %v must be positive", ErrInvalidConfig, c.InitialRate)
	}
	if c.DesiredRate <= 0 {
		return fmt.Errorf("%w: desired rate %v must be positive", ErrInvalidConfig, c.DesiredRate)
	}
	if c.EstimatorK <= 0 {
		return fmt.Errorf("%w: estimator k %d must be positive", ErrInvalidConfig, c.EstimatorK)
	}
	if c.NumProbes <= 0 {
		return fmt.Errorf("%w: probe count %d must be positive", ErrInvalidConfig, c.NumProbes)
	}
	if c.ProbeWindow <= 0 {
		return fmt.Errorf("%w: probe window %v must be positive", ErrInvalidConfig, c.ProbeWindow)
	}
	if c.PacketSize <= 0 {
		return fmt.Errorf("%w: packet size %d must be positive", ErrInvalidConfig, c.PacketSize)
	}
	if c.ReplyJitterMax == 0 {
		c.ReplyJitterMax = 0.6 * c.ProbeWindow
	}
	if c.ReplyJitterMax < 0 || c.ReplyJitterMax >= c.ProbeWindow {
		return fmt.Errorf("%w: reply jitter %v must be in [0, probe window)", ErrInvalidConfig, c.ReplyJitterMax)
	}
	if c.MinRate == 0 {
		c.MinRate = c.DesiredRate / 1e4
	}
	if c.MaxRate == 0 {
		c.MaxRate = 1.0
	}
	if c.MinRate < 0 || c.MaxRate <= c.MinRate {
		return fmt.Errorf("%w: rate clamp [%v, %v] is empty", ErrInvalidConfig, c.MinRate, c.MaxRate)
	}
	return nil
}
