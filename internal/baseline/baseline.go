// Package baseline implements the comparison scheme the paper contrasts
// PEAS against: deterministic synchronized sleeping in the style of
// GAF/SPAN (§2.1.1, Figures 4-5). The field is divided into cells; cell
// members wake simultaneously at round boundaries and re-elect one
// working node (the one with most remaining energy). When the elected
// worker fails unexpectedly mid-round, the cell is unmonitored until the
// next boundary — the "gap" PEAS's randomized wakeups avoid.
//
// The baseline runs on a lightweight simulation (no radio contention):
// its election traffic is local and rare, and the quantities compared —
// lifetimes and gap durations — are timing properties.
package baseline

import (
	"math"

	"peas/internal/energy"
	"peas/internal/geom"
	"peas/internal/stats"
)

// Config parameterizes a baseline run.
type Config struct {
	Field            geom.Field
	N                int
	Energy           energy.Profile
	InitialEnergyMin float64
	InitialEnergyMax float64
	// CellSize is the SyncSleep cell edge; one worker per cell. As in
	// GAF, the cell is sized so a single worker anywhere in the cell
	// covers it entirely: Rs/sqrt(2) ≈ 7 m for the paper's 10 m sensing
	// range.
	CellSize float64
	// RoundLength is the SyncSleep re-election period in seconds.
	RoundLength float64
	// FailureRate is in failures per second over the whole network.
	FailureRate float64
	// Horizon bounds the simulated time.
	Horizon float64
	Seed    int64
}

// DefaultConfig mirrors the paper's PEAS evaluation set-up for the
// baseline schemes.
func DefaultConfig(n int, seed int64) Config {
	return Config{
		Field:            geom.NewField(50, 50),
		N:                n,
		Energy:           energy.MotesProfile(),
		InitialEnergyMin: 54,
		InitialEnergyMax: 60,
		CellSize:         7,
		RoundLength:      500,
		FailureRate:      0,
		Horizon:          60000,
		Seed:             seed,
	}
}

// GapStats summarizes monitoring interruptions across cells.
type GapStats struct {
	// Count is the number of distinct gaps observed.
	Count int
	// TotalDuration is the summed gap time in seconds.
	TotalDuration float64
	// MaxDuration is the longest single gap.
	MaxDuration float64
	// MeanDuration is TotalDuration / Count (0 when Count == 0).
	MeanDuration float64
}

func (g *GapStats) add(d float64) {
	if d <= 0 {
		return
	}
	g.Count++
	g.TotalDuration += d
	if d > g.MaxDuration {
		g.MaxDuration = d
	}
}

func (g *GapStats) finish() {
	if g.Count > 0 {
		g.MeanDuration = g.TotalDuration / float64(g.Count)
	}
}

// Result is the outcome of a baseline run.
type Result struct {
	// CoverageLifetime is when the fraction of cells with a live worker
	// drops below 90%.
	CoverageLifetime float64
	// Gaps summarizes worker-replacement interruptions.
	Gaps GapStats
	// Wakeups counts synchronized wakeups (SyncSleep) over the run.
	Wakeups uint64
	// TotalConsumed is the joules consumed by the whole network.
	TotalConsumed float64
}

// nodeState is the lightweight per-node record for baseline runs.
type nodeState struct {
	pos    geom.Point
	energy float64 // remaining joules
	alive  bool
}

// SyncSleep runs the synchronized-sleeping baseline and reports lifetimes
// and the gap statistics of Figure 4.
func SyncSleep(cfg Config) Result {
	root := stats.NewRNG(cfg.Seed)
	deployRNG, energyRNG, failRNG := root.Split(), root.Split(), root.Split()

	positions := geom.UniformDeploy(cfg.Field, cfg.N, deployRNG)
	nodes := make([]nodeState, cfg.N)
	for i := range nodes {
		nodes[i] = nodeState{
			pos:    positions[i],
			energy: energyRNG.Uniform(cfg.InitialEnergyMin, cfg.InitialEnergyMax),
			alive:  true,
		}
	}

	// Assign nodes to cells.
	cols := int(math.Ceil(cfg.Field.Width / cfg.CellSize))
	rows := int(math.Ceil(cfg.Field.Height / cfg.CellSize))
	cells := make([][]int, cols*rows)
	for i, p := range positions {
		c := int(p.X / cfg.CellSize)
		r := int(p.Y / cfg.CellSize)
		if c >= cols {
			c = cols - 1
		}
		if r >= rows {
			r = rows - 1
		}
		cells[r*cols+c] = append(cells[r*cols+c], i)
	}
	occupied := 0
	for _, members := range cells {
		if len(members) > 0 {
			occupied++
		}
	}
	if occupied == 0 {
		return Result{}
	}

	// Pre-draw failure times per node (first failure arrival wins).
	failAt := make([]float64, cfg.N)
	for i := range failAt {
		failAt[i] = math.Inf(1)
	}
	if cfg.FailureRate > 0 {
		t := failRNG.Exp(cfg.FailureRate)
		for t < cfg.Horizon {
			victim := failRNG.Intn(cfg.N)
			if t < failAt[victim] {
				failAt[victim] = t
			}
			t += failRNG.Exp(cfg.FailureRate)
		}
	}

	res := Result{}
	worker := make([]int, len(cells)) // current worker per cell, -1 none
	for i := range worker {
		worker[i] = -1
	}

	coveredCells := func() int {
		n := 0
		for ci, w := range worker {
			_ = ci
			if w >= 0 && nodes[w].alive {
				n++
			}
		}
		return n
	}

	lifetimeSet := false
	for round := 0; float64(round)*cfg.RoundLength < cfg.Horizon; round++ {
		t0 := float64(round) * cfg.RoundLength
		t1 := math.Min(t0+cfg.RoundLength, cfg.Horizon)

		// Round boundary: every alive cell member wakes for election.
		for ci, members := range cells {
			best := -1
			for _, i := range members {
				if !nodes[i].alive {
					continue
				}
				res.Wakeups++
				if best < 0 || nodes[i].energy > nodes[best].energy {
					best = i
				}
			}
			worker[ci] = best
		}

		// Advance the round: the worker idles, others sleep; failures
		// and depletion interrupt workers and open gaps until t1.
		for ci, members := range cells {
			w := worker[ci]
			if w < 0 {
				// Cell has no alive members: permanent gap, counted in
				// coverage lifetime rather than gap stats.
				continue
			}
			// Worker w runs from t0 until depletion/failure/t1.
			deplete := t0 + nodes[w].energy/cfg.Energy.IdleW
			end := math.Min(t1, math.Min(deplete, failAt[w]))
			spent := (end - t0) * cfg.Energy.IdleW
			nodes[w].energy -= spent
			res.TotalConsumed += spent
			if end < t1 {
				// Mid-round death: gap until the next boundary, but only
				// if a live replacement existed (the gap is the
				// avoidable interruption of Figure 4).
				nodes[w].alive = false
				worker[ci] = -1
				hasReplacement := false
				for _, i := range members {
					if i != w && nodes[i].alive && failAt[i] > end {
						hasReplacement = true
						break
					}
				}
				if hasReplacement {
					res.Gaps.add(t1 - end)
				}
			}
			// Sleepers drain at sleep power; failures can kill them too.
			for _, i := range members {
				if i == w || !nodes[i].alive {
					continue
				}
				end := math.Min(t1, failAt[i])
				spent := (end - t0) * cfg.Energy.SleepW
				nodes[i].energy -= spent
				res.TotalConsumed += spent
				if failAt[i] <= t1 || nodes[i].energy <= 0 {
					nodes[i].alive = false
				}
			}
		}

		if !lifetimeSet {
			frac := float64(coveredCells()) / float64(occupied)
			if frac < 0.9 {
				res.CoverageLifetime = t1
				lifetimeSet = true
			}
		}
	}
	if !lifetimeSet {
		res.CoverageLifetime = cfg.Horizon
	}
	res.Gaps.finish()
	return res
}
