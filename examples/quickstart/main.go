// Quickstart: the 60-second tour of sidq.
//
// It simulates a small fleet of vehicles with realistic GPS defects
// (noise, outliers, dropouts, duplicates), measures the data quality,
// lets the DQ-aware planner choose a cleaning pipeline, runs it, and
// shows the before/after quality report.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

func main() {
	// 1. Simulate ground truth and corrupt it the way real IoT data is.
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &core.Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Now:              600,
	}
	for i := int64(0); i < 3; i++ {
		truth := simulate.RandomWalk(fmt.Sprintf("veh-%d", i), region, 600, 2, 1, i)
		ds.Truth[truth.ID] = truth
		dirty := simulate.AddGaussianNoise(truth, 6, 10+i)
		dirty, _ = simulate.InjectOutliers(dirty, 0.03, 120, 20+i)
		dirty = simulate.DropSamples(dirty, 0.2, 30+i)
		dirty = simulate.DuplicateSamples(dirty, 0.1, 40+i)
		ds.Trajectories = append(ds.Trajectories, dirty)
	}

	// 2. Assess: which DQ dimensions are hurting?
	before := ds.Assess()
	fmt.Println("quality before cleaning:")
	fmt.Print(before)

	// 3. Plan: the DQ-aware planner picks stages from the assessment.
	cleaned, stages, _, _ := core.PlanAndRunIterativeWith(context.Background(), nil, ds, core.DefaultTargets(), 1)
	fmt.Println("\nplanned stages:")
	for _, s := range stages {
		fmt.Printf("  %s  (%s)\n", s.Name(), s.Task())
	}

	// 4. Re-assess.
	fmt.Println("\nquality after cleaning:")
	fmt.Print(cleaned.Assess())
}
