package chaos

import (
	"peas/internal/metrics"
	"peas/internal/stats"
)

// Decision says what to do with one (frame, receiver) delivery. The zero
// value delivers the frame normally.
type Decision struct {
	// Drop suppresses the delivery entirely; Cause records which fault
	// class decided so.
	Drop  bool
	Cause FaultClass
	// Copies is the number of EXTRA copies to deliver (duplication).
	Copies int
	// Delay is extra latency in protocol seconds added to every copy.
	Delay float64
}

// Channel is the substrate-independent per-frame fault decision engine:
// given a (sender, receiver) pair it decides drop/duplicate/delay from
// its own seeded RNG stream and the currently configured impairments.
//
// A Channel is deliberately single-threaded — the simulator consults it
// from the event loop, the live runtime wraps it in peasnet.ChaosInjector
// which serializes access. Judged frames advance the RNG and the
// Gilbert-Elliott chain, so the decision sequence is a deterministic
// function of (seed, configuration history, judged-frame sequence).
type Channel struct {
	rng      *stats.RNG
	counters *metrics.Counters

	lossRate float64 // uniform i.i.d. drop probability

	// Gilbert-Elliott bursty loss: a two-state Markov chain stepped once
	// per judged frame.
	burst    bool
	inBad    bool
	pGB, pBG float64 // good->bad and bad->good transition probabilities
	lossGood float64
	lossBad  float64

	dupRate float64 // per-delivery probability of one extra copy

	reorderRate  float64 // probability of deferring a frame behind later traffic
	reorderDelay float64 // max deferral in seconds

	delayRate float64 // probability of bounded extra latency
	delayMax  float64 // max extra latency in seconds

	// partition[i] is node i's group; frames between different groups are
	// dropped. nil means no partition.
	partition []int
}

// NewChannel returns a Channel drawing decisions from the given seed and
// counting fired faults into counters (a fresh set when nil).
func NewChannel(seed int64, counters *metrics.Counters) *Channel {
	if counters == nil {
		counters = metrics.NewCounters()
	}
	return &Channel{rng: stats.NewRNG(seed), counters: counters}
}

// Counters returns the channel's fault counters.
func (c *Channel) Counters() *metrics.Counters { return c.counters }

// SetLoss sets the uniform i.i.d. drop probability (0 disables).
func (c *Channel) SetLoss(p float64) { c.lossRate = clamp01(p) }

// SetBurst enables Gilbert-Elliott bursty loss. pGB and pBG are the
// per-frame good->bad and bad->good transition probabilities; lossGood
// and lossBad the drop probabilities within each state. The chain starts
// in the good state.
func (c *Channel) SetBurst(pGB, pBG, lossGood, lossBad float64) {
	c.burst = true
	c.inBad = false
	c.pGB = clamp01(pGB)
	c.pBG = clamp01(pBG)
	c.lossGood = clamp01(lossGood)
	c.lossBad = clamp01(lossBad)
}

// ClearBurst disables bursty loss.
func (c *Channel) ClearBurst() { c.burst = false }

// SetDuplication sets the per-delivery probability of one extra copy.
func (c *Channel) SetDuplication(p float64) { c.dupRate = clamp01(p) }

// SetReorder makes a fraction p of deliveries defer by a uniform draw
// from [maxDelay/2, maxDelay], long enough to land behind frames sent
// later (maxDelay should exceed a few frame airtimes).
func (c *Channel) SetReorder(p, maxDelay float64) {
	c.reorderRate = clamp01(p)
	c.reorderDelay = maxDelay
}

// SetDelay adds a uniform extra latency from [0, maxDelay] to a fraction
// p of deliveries.
func (c *Channel) SetDelay(p, maxDelay float64) {
	c.delayRate = clamp01(p)
	c.delayMax = maxDelay
}

// SetPartition installs a node->group assignment; deliveries crossing
// group boundaries are dropped. Nodes beyond len(groups) are treated as
// group 0.
func (c *Channel) SetPartition(groups []int) { c.partition = groups }

// Heal removes the partition.
func (c *Channel) Heal() { c.partition = nil }

func (c *Channel) group(id int) int {
	if id < 0 || id >= len(c.partition) {
		return 0
	}
	return c.partition[id]
}

// JudgeFrame decides the fate of one delivery from node `from` to node
// `to`, counting whatever fired. Checks run in severity order: partition
// (deterministic, no RNG draw), bursty loss, uniform loss, then the
// non-fatal duplicate/delay/reorder impairments, which compose.
func (c *Channel) JudgeFrame(from, to int) Decision {
	if c.partition != nil && c.group(from) != c.group(to) {
		c.counters.Add(CtrDropPartition, 1)
		return Decision{Drop: true, Cause: Partition}
	}
	if c.burst {
		if c.inBad {
			if c.rng.Float64() < c.pBG {
				c.inBad = false
			}
		} else {
			if c.rng.Float64() < c.pGB {
				c.inBad = true
			}
		}
		p := c.lossGood
		if c.inBad {
			p = c.lossBad
		}
		if p > 0 && c.rng.Float64() < p {
			c.counters.Add(CtrDropBurst, 1)
			return Decision{Drop: true, Cause: BurstLoss}
		}
	}
	if c.lossRate > 0 && c.rng.Float64() < c.lossRate {
		c.counters.Add(CtrDropLoss, 1)
		return Decision{Drop: true, Cause: Loss}
	}
	var d Decision
	if c.dupRate > 0 && c.rng.Float64() < c.dupRate {
		d.Copies++
		c.counters.Add(CtrDup, 1)
	}
	if c.delayRate > 0 && c.rng.Float64() < c.delayRate {
		d.Delay += c.rng.Uniform(0, c.delayMax)
		c.counters.Add(CtrDelay, 1)
	}
	if c.reorderRate > 0 && c.rng.Float64() < c.reorderRate {
		d.Delay += c.rng.Uniform(c.reorderDelay/2, c.reorderDelay)
		c.counters.Add(CtrReorder, 1)
	}
	return d
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
