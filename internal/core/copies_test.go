package core_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"sidq/internal/core"
	"sidq/internal/israce"
	"sidq/internal/trajectory"
)

// bytesPerOp is what f allocates a call, warm: the least of three
// rounds of ten, since a collection inside a round empties the pools
// and the round pays to refill them.
func bytesPerOp(f func()) uint64 {
	for i := 0; i < 4; i++ {
		f()
	}
	perOp := ^uint64(0)
	for r := 0; r < 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		perOp = min(perOp, (after.TotalAlloc-before.TotalAlloc)/10)
	}
	return perOp
}

// TestPlanAndRunKeepsOneCopyPerTrajectory: the planner's run allocates
// one output copy of each trajectory, not one per stage. The dirty
// dataset plans all four stages in one round, so each trajectory goes
// through all of them in the run's two pooled point buffers and only
// its cleaned points are copied out. What the run allocates beyond the
// assessment of its input is held to those copies and half again (the
// pools' refills after a collection); a copy per stage is four times
// them.
func TestPlanAndRunKeepsOneCopyPerTrajectory(t *testing.T) {
	ds := core.DirtyDataset(1)
	ds.Readings = nil // the readings cleaners allocate for themselves
	var out *core.Dataset
	var stages []core.Stage
	run := bytesPerOp(func() {
		var err error
		out, stages, _, err = core.PlanAndRunIterativeWith(context.Background(), nil, ds, core.DefaultTargets(), 3)
		if err != nil {
			t.Fatal(err)
		}
	})
	assess := bytesPerOp(func() { ds.Assess() })
	kept := uint64(0)
	for _, tr := range out.Trajectories {
		kept += uint64(cap(tr.Points)) * uint64(unsafe.Sizeof(trajectory.Point{}))
	}
	t.Logf("%d stages: the run allocates %d bytes, its input's assessment %d, its output's points %d", len(stages), run, assess, kept)
	if len(stages) != 4 {
		t.Fatalf("%d stages planned, want all four in one round", len(stages))
	}
	if israce.Enabled {
		return // sync.Pool drops items under the race detector by design
	}
	if run < assess || run-assess > kept+kept/2 {
		t.Fatalf("the run allocates %d bytes beyond its assessment for %d bytes of output points; want at most %d",
			run-assess, kept, kept+kept/2)
	}
}
