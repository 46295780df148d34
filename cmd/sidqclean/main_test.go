package main

import (
	"reflect"
	"testing"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/simulate"
)

// TestPlanAndCleanAssessesEachStateOnce: the movement sidqclean prints
// is read from the runner's reports, which hold the one assessment the
// library makes of each state (core's test of the same name checks that
// chain), and is what assessing the input and the output directly gives.
func TestPlanAndCleanAssessesEachStateOnce(t *testing.T) {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &core.Dataset{Region: region, ExpectedInterval: 1, MaxSpeed: 10}
	dirty := simulate.AddGaussianNoise(simulate.RandomWalk("v0", region, 600, 2, 1, 50), 3, 51)
	dirty, _ = simulate.InjectOutliers(dirty, 0.2, 150, 52)
	ds.Trajectories = append(ds.Trajectories, dirty)

	cleaned, stages, before, after, err := planAndClean(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Fatal("nothing planned for a dirty dataset")
	}
	if !reflect.DeepEqual(before, ds.Assess()) || !reflect.DeepEqual(after, cleaned.Assess()) {
		t.Fatal("reported movement differs from assessing the input and the output directly")
	}
}
