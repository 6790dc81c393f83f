package experiment

import (
	"errors"
	"reflect"
	"testing"
)

// TestParallelEqualsSequential is the determinism contract of the worker
// pool: the same options produce identical points regardless of
// parallelism.
func TestParallelEqualsSequential(t *testing.T) {
	opts := fastOptions()
	opts.Parallel = 1
	seq, err := DeploymentSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	par, err := DeploymentSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Points, par.Points) {
		t.Errorf("parallel sweep diverged:\nseq %+v\npar %+v", seq.Points, par.Points)
	}
}

func TestRunGridPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := runGrid(3, 2, 4, func(point, run int) (*RunStats, error) {
		if point == 1 && run == 1 {
			return nil, boom
		}
		return &RunStats{}, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestRunGridShapes(t *testing.T) {
	grid, err := runGrid(2, 3, 0, func(point, run int) (*RunStats, error) {
		return &RunStats{Wakeups: uint64(point*10 + run)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 3 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	for p := 0; p < 2; p++ {
		for r := 0; r < 3; r++ {
			if grid[p][r].Wakeups != uint64(p*10+r) {
				t.Errorf("grid[%d][%d] = %d", p, r, grid[p][r].Wakeups)
			}
		}
	}
}

func TestAggregateSkipsNilRuns(t *testing.T) {
	runs := []*RunStats{
		{DeliveryLifetime: 10, Wakeups: 4},
		nil,
		{DeliveryLifetime: 20, Wakeups: 8},
	}
	pt := aggregate(runs)
	if pt.DeliveryLifetime != 15 || pt.Wakeups != 6 {
		t.Errorf("aggregate %+v", pt)
	}
	empty := aggregate([]*RunStats{nil})
	if empty.DeliveryLifetime != 0 {
		t.Errorf("empty aggregate %+v", empty)
	}
}
