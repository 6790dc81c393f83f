// Package sensing models the application workload PEAS exists to serve:
// detecting events in the field. Mobile targets (the paper's motivating
// example is animal tracking) move through the deployment; a target is
// detected whenever a *working* node has it within sensing range. The
// package measures detection latency and exposure — how long a target
// moves unobserved — which is what the application's "interruptions in
// sensing" tolerance (§2.2.1) is about.
package sensing

import (
	"math"

	"peas/internal/geom"
	"peas/internal/stats"
)

// Target is a mobile point following a random-waypoint trajectory:
// pick a uniform waypoint, move toward it at Speed, repeat.
type Target struct {
	ID    int
	Pos   geom.Point
	Speed float64 // meters/second

	waypoint geom.Point
	rng      *stats.RNG
	field    geom.Field
}

// NewTarget places a target uniformly in the field with the given speed.
func NewTarget(id int, field geom.Field, speed float64, rng *stats.RNG) *Target {
	t := &Target{
		ID:    id,
		Speed: speed,
		rng:   rng,
		field: field,
	}
	t.Pos = geom.Point{X: rng.Uniform(0, field.Width), Y: rng.Uniform(0, field.Height)}
	t.pickWaypoint()
	return t
}

func (t *Target) pickWaypoint() {
	t.waypoint = geom.Point{
		X: t.rng.Uniform(0, t.field.Width),
		Y: t.rng.Uniform(0, t.field.Height),
	}
}

// Advance moves the target dt seconds along its trajectory, possibly
// through several waypoints.
func (t *Target) Advance(dt float64) {
	remaining := t.Speed * dt
	for remaining > 0 {
		d := t.Pos.Dist(t.waypoint)
		if d <= remaining {
			t.Pos = t.waypoint
			remaining -= d
			t.pickWaypoint()
			if d == 0 {
				// Degenerate waypoint on our position; avoid spinning.
				return
			}
			continue
		}
		frac := remaining / d
		t.Pos = geom.Point{
			X: t.Pos.X + (t.waypoint.X-t.Pos.X)*frac,
			Y: t.Pos.Y + (t.waypoint.Y-t.Pos.Y)*frac,
		}
		remaining = 0
	}
}

// Tracker measures per-target detection over time. Call Observe
// periodically with the current working-node positions.
type Tracker struct {
	field        geom.Field
	sensingRange float64
	targets      []*Target
	lastT        float64

	// Per-target exposure state.
	exposedSince []float64 // NaN while detected
	exposures    []float64 // completed undetected intervals
	detectedTime float64
	totalTime    float64
}

// NewTracker creates count targets with the given speed.
func NewTracker(field geom.Field, sensingRange float64, count int, speed float64, rng *stats.RNG) *Tracker {
	tr := &Tracker{
		field:        field,
		sensingRange: sensingRange,
		exposedSince: make([]float64, count),
	}
	for i := 0; i < count; i++ {
		tr.targets = append(tr.targets, NewTarget(i, field, speed, rng.Split()))
		tr.exposedSince[i] = math.NaN()
	}
	return tr
}

// Observe advances every target to time now and classifies it as
// detected (a working node within sensing range) or exposed.
func (tr *Tracker) Observe(now float64, working []geom.Point) {
	dt := now - tr.lastT
	if dt < 0 {
		dt = 0
	}
	tr.lastT = now
	tr.totalTime += dt * float64(len(tr.targets))

	var idx *geom.Index
	if len(working) > 0 {
		idx = geom.NewIndex(tr.field, working, tr.sensingRange)
	}
	for i, tg := range tr.targets {
		tg.Advance(dt)
		detected := false
		if idx != nil {
			idx.Within(tg.Pos, tr.sensingRange, func(int, float64) { detected = true })
		}
		switch {
		case detected && !math.IsNaN(tr.exposedSince[i]):
			// Exposure ends.
			tr.exposures = append(tr.exposures, now-tr.exposedSince[i])
			tr.exposedSince[i] = math.NaN()
		case !detected && math.IsNaN(tr.exposedSince[i]):
			// Exposure begins.
			tr.exposedSince[i] = now
		}
		if detected {
			tr.detectedTime += dt
		}
	}
}

// Report summarizes the tracking quality.
type Report struct {
	// DetectedFraction is the fraction of target-time spent detected.
	DetectedFraction float64
	// Exposures is the number of completed undetected intervals.
	Exposures int
	// MeanExposure and MaxExposure describe the undetected intervals in
	// seconds (completed intervals only).
	MeanExposure float64
	MaxExposure  float64
}

// Report computes the summary at the end of an observation run.
func (tr *Tracker) Report() Report {
	r := Report{Exposures: len(tr.exposures)}
	if tr.totalTime > 0 {
		r.DetectedFraction = tr.detectedTime / tr.totalTime
	}
	if len(tr.exposures) > 0 {
		r.MeanExposure = stats.Mean(tr.exposures)
		for _, e := range tr.exposures {
			if e > r.MaxExposure {
				r.MaxExposure = e
			}
		}
	}
	return r
}
