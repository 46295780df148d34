package core_test

import (
	"context"
	"fmt"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/quality"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// ExamplePlanAndRunIterativeWith shows the middleware loop: assess a
// corrupted dataset, let the planner pick stages in one round, run
// them, and check the movement on the consistency dimension.
func ExamplePlanAndRunIterativeWith() {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	truth := simulate.RandomWalk("veh-0", region, 500, 2, 1, 7)
	dirty := simulate.AddGaussianNoise(truth, 8, 8)
	dirty, _ = simulate.InjectOutliers(dirty, 0.05, 120, 9)

	ds := &core.Dataset{
		Trajectories:     []*trajectory.Trajectory{dirty},
		Truth:            map[string]*trajectory.Trajectory{truth.ID: truth},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
	}
	cleaned, stages, _, _ := core.PlanAndRunIterativeWith(context.Background(), nil, ds, core.DefaultTargets(), 1)
	for _, s := range stages {
		fmt.Println("stage:", s.Name())
	}
	fmt.Printf("consistency %.2f -> %.2f\n",
		ds.Assess()[quality.Consistency], cleaned.Assess()[quality.Consistency])
	// Output:
	// stage: outlier-removal
	// stage: kalman-smoothing
	// consistency 0.30 -> 1.00
}
