package sensing

import (
	"math"
	"testing"

	"peas/internal/geom"
	"peas/internal/stats"
)

func TestTargetStaysInField(t *testing.T) {
	f := geom.NewField(30, 30)
	tg := NewTarget(0, f, 2, stats.NewRNG(1))
	for i := 0; i < 5000; i++ {
		tg.Advance(1)
		if !f.Contains(tg.Pos) {
			t.Fatalf("target escaped to %v at step %d", tg.Pos, i)
		}
	}
}

func TestTargetMoves(t *testing.T) {
	f := geom.NewField(30, 30)
	tg := NewTarget(0, f, 1.5, stats.NewRNG(2))
	start := tg.Pos
	tg.Advance(10)
	moved := start.Dist(tg.Pos)
	// Straight-line displacement is at most speed*time; waypoint turns
	// make it shorter but it should not be zero.
	if moved == 0 || moved > 15+1e-9 {
		t.Errorf("moved %v in 10 s at 1.5 m/s", moved)
	}
}

func TestTargetSpeedRespected(t *testing.T) {
	f := geom.NewField(1000, 1000) // huge field: rarely hits a waypoint
	tg := NewTarget(0, f, 3, stats.NewRNG(3))
	prev := tg.Pos
	for i := 0; i < 100; i++ {
		tg.Advance(1)
		if d := prev.Dist(tg.Pos); d > 3+1e-9 {
			t.Fatalf("target covered %v m in 1 s at 3 m/s", d)
		}
		prev = tg.Pos
	}
}

func TestTrackerAlwaysDetectedWhenCovered(t *testing.T) {
	f := geom.NewField(20, 20)
	tr := NewTracker(f, 100 /* covers everything */, 3, 2, stats.NewRNG(4))
	sensors := []geom.Point{{X: 10, Y: 10}}
	for now := 1.0; now <= 100; now++ {
		tr.Observe(now, sensors)
	}
	r := tr.Report()
	if r.DetectedFraction < 0.999 {
		t.Errorf("detected fraction %v under full coverage", r.DetectedFraction)
	}
	if r.Exposures != 0 {
		t.Errorf("%d exposures under full coverage", r.Exposures)
	}
}

func TestTrackerNeverDetectedWithoutSensors(t *testing.T) {
	f := geom.NewField(20, 20)
	tr := NewTracker(f, 5, 2, 2, stats.NewRNG(5))
	for now := 1.0; now <= 50; now++ {
		tr.Observe(now, nil)
	}
	r := tr.Report()
	if r.DetectedFraction != 0 {
		t.Errorf("detected fraction %v with no sensors", r.DetectedFraction)
	}
}

func TestTrackerExposureIntervals(t *testing.T) {
	f := geom.NewField(20, 20)
	tr := NewTracker(f, 3, 1, 0 /* stationary target */, stats.NewRNG(6))
	pos := tr.targets[0].Pos
	near := []geom.Point{pos}

	tr.Observe(1, near) // detected
	tr.Observe(2, nil)  // exposure starts at t=2
	tr.Observe(3, nil)  // still exposed
	tr.Observe(4, near) // exposure ends: 2 seconds
	tr.Observe(5, near) // detected

	r := tr.Report()
	if r.Exposures != 1 {
		t.Fatalf("exposures = %d, want 1", r.Exposures)
	}
	if math.Abs(r.MeanExposure-2) > 1e-9 || math.Abs(r.MaxExposure-2) > 1e-9 {
		t.Errorf("exposure duration %v/%v, want 2", r.MeanExposure, r.MaxExposure)
	}
	// 3 of 5 observed seconds detected (t=1 dt=1, t=4 dt=1, t=5 dt=1).
	if math.Abs(r.DetectedFraction-3.0/5) > 1e-9 {
		t.Errorf("detected fraction %v, want 0.6", r.DetectedFraction)
	}
}
