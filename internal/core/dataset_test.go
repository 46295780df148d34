package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

func twoTrajDataset() *Dataset {
	mk := func(id string, x0 float64) *trajectory.Trajectory {
		pts := make([]trajectory.Point, 5)
		for i := range pts {
			pts[i] = trajectory.Point{T: float64(i), Pos: geo.Pt(x0+float64(i), float64(i))}
		}
		return &trajectory.Trajectory{ID: id, Points: pts}
	}
	return &Dataset{
		Trajectories: []*trajectory.Trajectory{mk("a", 0), mk("b", 100)},
		Readings: []stid.Reading{
			{SensorID: "s1", Pos: geo.Pt(1, 1), T: 0, Value: 10},
			{SensorID: "s2", Pos: geo.Pt(2, 2), T: 1, Value: 20},
		},
		MaxSpeed: 10,
	}
}

// TestRunLeavesInputBitIdentical: the runner no longer deep-copies its
// input, so the Stage contract is all that protects it. Every planner
// stage runs over a dataset that gives each of them work, and the input
// must come back bit for bit — trajectories, points and readings.
func TestRunLeavesInputBitIdentical(t *testing.T) {
	ds := dirtyDataset(23)
	want := *ds
	want.Trajectories = make([]*trajectory.Trajectory, len(ds.Trajectories))
	for i, tr := range ds.Trajectories {
		want.Trajectories[i] = tr.Clone()
	}
	want.Readings = slices.Clone(ds.Readings)
	stages := []Stage{DeduplicateStage{}, OutlierRemovalStage{}, SmoothingStage{}, ImputeStage{}, ThematicRepairStage{}}
	out, reports, err := DefaultRunner().Run(context.Background(), ds, stages)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Skipped || rep.Err != nil {
			t.Fatalf("stage %s did not run cleanly: %+v", rep.Stage, rep)
		}
	}
	if out == ds {
		t.Fatal("every stage's work was kept, yet the output is the input")
	}
	sameTrajectories(t, ds.Trajectories, want.Trajectories)
	if !reflect.DeepEqual(ds.Readings, want.Readings) {
		t.Fatal("the run changed its input's readings")
	}
}

// TestRunOutputSharesTruthMap: a run's output carries its input's
// assessment context by reference — ground truth is reference material,
// not per-run state — while its trajectory slice is its own: a
// trajectory no stage changed is shared, and replacing an entry of the
// output leaves the input alone.
func TestRunOutputSharesTruthMap(t *testing.T) {
	truth := trajectory.New("a", []trajectory.Point{
		{T: 0, Pos: geo.Pt(0, 0)}, {T: 1, Pos: geo.Pt(1, 1)},
	})
	ds := spikyDataset(rand.New(rand.NewSource(74)), 2, 20)
	ds.Truth = map[string]*trajectory.Trajectory{"a": truth}

	out, _, err := DefaultRunner().Run(context.Background(), ds, []Stage{ThematicRepairStage{}})
	if err != nil {
		t.Fatal(err)
	}
	out.Truth["probe"] = truth
	if _, ok := ds.Truth["probe"]; !ok {
		t.Fatal("Truth map was copied; the documented contract is sharing")
	}
	if out.Trajectories[0] != ds.Trajectories[0] {
		t.Fatal("a trajectory no stage changed was copied; want it shared")
	}
	first := ds.Trajectories[0]
	out.Trajectories[0] = &trajectory.Trajectory{ID: "fresh"}
	if ds.Trajectories[0] != first {
		t.Fatal("replacing an output entry leaked into the input")
	}
}
