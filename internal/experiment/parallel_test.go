package experiment

import (
	"encoding/json"
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

// TestDeploymentPointWireShape pins the JSON object jobqueue.Result.Sweep
// sends per point: PointStats is embedded, and its fields must stay
// flattened beside N, in this order, not nested under a key of their own.
func TestDeploymentPointWireShape(t *testing.T) {
	got, err := json.Marshal(DeploymentPoint{N: 160})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"N":160,"CoverageLifetime":[0,0,0,0,0],"DeliveryLifetime":0,` +
		`"Wakeups":0,"ProtocolEnergy":0,"TotalEnergy":0,"OverheadRatio":0,` +
		`"MeanWorking":0,"FailedFraction":0,"Coverage4CI":0,"DeliveryCI":0}`
	if string(got) != want {
		t.Errorf("wire shape moved:\n got %s\nwant %s", got, want)
	}
}
