package main

import (
	"reflect"
	"sync/atomic"
	"testing"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/stid"
)

// TestPlanAndCleanAssessesEachStateOnce counts assessments with the
// device core's TestPlanAndRunIterativeAssessesEachStateOnce uses (one
// reading and a counting truth field: an assessment calls the field
// once per reading): the input and every stage's output are measured
// once, by the library, and the movement sidqclean prints is read from
// those reports.
func TestPlanAndCleanAssessesEachStateOnce(t *testing.T) {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	var assessments atomic.Int64
	ds := &core.Dataset{
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Readings:         []stid.Reading{{SensorID: "s0", Pos: geo.Pt(1, 1), T: 1, Value: 1}},
		TruthField:       func(geo.Point, float64) float64 { assessments.Add(1); return 1 },
	}
	dirty := simulate.AddGaussianNoise(simulate.RandomWalk("v0", region, 600, 2, 1, 50), 3, 51)
	dirty, _ = simulate.InjectOutliers(dirty, 0.2, 150, 52)
	ds.Trajectories = append(ds.Trajectories, dirty)

	cleaned, stages, before, after, err := planAndClean(ds, nil)
	got := assessments.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Fatal("nothing planned for a dirty dataset")
	}
	if want := int64(1 + len(stages)); got != want {
		t.Fatalf("%d assessments for %d stages, want %d (the input and each stage's output)", got, len(stages), want)
	}
	if !reflect.DeepEqual(before, ds.Assess()) || !reflect.DeepEqual(after, cleaned.Assess()) {
		t.Fatal("reported movement differs from assessing the input and the output directly")
	}
}
