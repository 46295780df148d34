package core

import (
	"context"
	"reflect"
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

// TestCloneCOWContract pins the copy-on-write contract: slice entries
// and readings are isolated, while trajectory pointers are shared until
// replaced — exactly what the Stage contract relies on.
func TestCloneCOWContract(t *testing.T) {
	parent := twoTrajDataset()
	cow := parent.CloneCOW()

	// Entry replacement is isolated in both directions.
	cow.Trajectories[0] = &trajectory.Trajectory{ID: "fresh"}
	if parent.Trajectories[0].ID != "a" {
		t.Fatal("replacing a COW entry leaked into the parent")
	}
	parent.Trajectories[1] = &trajectory.Trajectory{ID: "other"}
	if cow.Trajectories[1].ID != "b" {
		t.Fatal("replacing a parent entry leaked into the COW clone")
	}

	// Readings are value copies.
	cow.Readings[0].Value = -1
	if parent.Readings[0].Value != 10 {
		t.Fatal("COW readings alias the parent")
	}

	// Unreplaced trajectory pointers are shared — the documented
	// contract that makes the clone cheap.
	if cow.Trajectories[1] == parent.Trajectories[1] {
		t.Fatal("expected shard 1 to differ after the parent replaced it")
	}
	cow2 := parent.CloneCOW()
	if cow2.Trajectories[0] != parent.Trajectories[0] {
		t.Fatal("COW clone must share unreplaced trajectory pointers")
	}
}

// TestRunLeavesInputBitIdentical: the runner no longer deep-copies its
// input, so the Stage contract is all that protects it. Every planner
// stage runs over a dataset that gives each of them work, and the input
// must come back bit for bit — trajectories, points and readings.
func TestRunLeavesInputBitIdentical(t *testing.T) {
	ds := dirtyDataset(23)
	want := ds.CloneCOW()
	for i, tr := range want.Trajectories {
		want.Trajectories[i] = tr.Clone()
	}
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
