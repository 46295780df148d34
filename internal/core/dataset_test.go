package core

import (
	"context"
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

// TestCloneDeepCopyIsolation is the regression guard for the COW
// rewrite: Dataset.Clone stays a deep copy — mutations to a clone's
// points must never be visible in the parent, and vice versa.
func TestCloneDeepCopyIsolation(t *testing.T) {
	parent := twoTrajDataset()
	clone := parent.Clone()

	// Mutate every layer of the clone.
	clone.Trajectories[0].Points[0].Pos.X = 9999
	clone.Trajectories[0].Points[0].T = -1
	clone.Trajectories[1] = &trajectory.Trajectory{ID: "swapped"}
	clone.Readings[0].Value = -42

	if parent.Trajectories[0].Points[0].Pos.X == 9999 || parent.Trajectories[0].Points[0].T == -1 {
		t.Fatal("mutating a clone's points leaked into the parent")
	}
	if parent.Trajectories[1].ID != "b" {
		t.Fatal("replacing a clone entry leaked into the parent")
	}
	if parent.Readings[0].Value != 10 {
		t.Fatal("mutating a clone reading leaked into the parent")
	}

	// And the reverse direction.
	parent.Trajectories[0].Points[1].Pos.Y = -777
	parent.Readings[1].Value = -7
	if clone.Trajectories[0].Points[1].Pos.Y == -777 {
		t.Fatal("mutating the parent's points leaked into the clone")
	}
	if clone.Readings[1].Value != 20 {
		t.Fatal("mutating a parent reading leaked into the clone")
	}

	// Appends never alias.
	clone.Trajectories = append(clone.Trajectories, &trajectory.Trajectory{ID: "extra"})
	if len(parent.Trajectories) != 2 {
		t.Fatal("appending to a clone grew the parent")
	}
}

// TestCloneCOWContract pins the copy-on-write contract: slice entries
// and readings are isolated, while trajectory pointers are shared until
// replaced — exactly what ReplacesTrajectories stages rely on.
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

// TestRunnerOutputIsolatedFromInput ensures the runner's COW fast path
// never lets a stage's output alias the caller's input dataset in a way
// that a later in-place edit of the output could corrupt the input.
func TestRunnerOutputIsolatedFromInput(t *testing.T) {
	ds := dirtyDataset(23)
	origX := ds.Trajectories[0].Points[0].Pos.X
	out, _, _ := NewPipeline(SmoothingStage{}, DeduplicateStage{}).RunContext(context.Background(), nil, ds)
	for i := range out.Trajectories {
		for j := range out.Trajectories[i].Points {
			out.Trajectories[i].Points[j].Pos.X = -1e9
		}
	}
	if ds.Trajectories[0].Points[0].Pos.X != origX {
		t.Fatal("pipeline output aliases the input dataset")
	}
}
