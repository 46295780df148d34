package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sidq/internal/chaos"
	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/quality"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// runAssessingEach runs stages one at a time, measuring the output of
// every stage that ends without a fatal error: the runner as it was
// when each stage report carried its own before/after assessment. It
// returns the last measurement, or last when no stage completed.
func runAssessingEach(ctx context.Context, r *core.Runner, cur *core.Dataset, stages []core.Stage, last quality.Assessment) (*core.Dataset, []core.StageReport, quality.Assessment, error) {
	var reports []core.StageReport
	for _, st := range stages {
		out, reps, err := r.Run(ctx, cur, []core.Stage{st})
		reports = append(reports, reps...)
		cur = out
		if err != nil {
			return cur, reports, last, err
		}
		last = cur.Assess()
	}
	return cur, reports, last, nil
}

// planAssessingEach is the reference planner: the assess-plan-run loop
// planning each round from the assessment of the last stage's output,
// as it did when the runner assessed after every stage.
func planAssessingEach(ctx context.Context, r *core.Runner, ds *core.Dataset, t core.Targets, maxRounds int) (*core.Dataset, []core.Stage, []core.StageReport, error) {
	cur, assessed := ds, ds.Assess()
	var stages []core.Stage
	var reports []core.StageReport
	applied := map[string]bool{}
	for round := 0; round < max(maxRounds, 1); round++ {
		var planned []core.Stage
		for _, s := range core.Plan(assessed, t) {
			if !applied[s.Name()] {
				applied[s.Name()] = true
				planned = append(planned, s)
			}
		}
		if len(planned) == 0 {
			break
		}
		stages = append(stages, planned...)
		out, reps, a, err := runAssessingEach(ctx, r, cur, planned, assessed)
		cur, assessed = out, a
		reports = append(reports, reps...)
		if err != nil {
			return cur, stages, reports, err
		}
	}
	return cur, stages, reports, nil
}

// run is one execution's result, for comparing two of them.
type run struct {
	out     *core.Dataset
	stages  []core.Stage
	reports []core.StageReport
	err     error
}

// sameRun fails t unless got and want planned the same stages, report
// the same outcome for each (Duration aside), end with the same error,
// and produced the same output bit for bit.
func sameRun(t *testing.T, label string, got, want run) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: err %v, want %v", label, got.err, want.err)
	}
	if len(got.stages) != len(want.stages) {
		t.Fatalf("%s: %d stages, want %d", label, len(got.stages), len(want.stages))
	}
	for i := range want.stages {
		if got.stages[i].Name() != want.stages[i].Name() {
			t.Fatalf("%s: stage %d is %s, want %s", label, i, got.stages[i].Name(), want.stages[i].Name())
		}
	}
	if len(got.reports) != len(want.reports) {
		t.Fatalf("%s: %d reports, want %d", label, len(got.reports), len(want.reports))
	}
	for i, w := range want.reports {
		g := got.reports[i]
		if g.Stage != w.Stage || g.Task != w.Task || g.Skipped != w.Skipped ||
			fmt.Sprint(g.Err) != fmt.Sprint(w.Err) || !reflect.DeepEqual(g.Meta, w.Meta) {
			t.Fatalf("%s: report %d = %+v, want %+v", label, i, g, w)
		}
	}
	sameOutput(t, label, got.out, want.out)
}

func sameOutput(t *testing.T, label string, got, want *core.Dataset) {
	t.Helper()
	if len(got.Trajectories) != len(want.Trajectories) || len(got.Readings) != len(want.Readings) {
		t.Fatalf("%s: %d trajectories, %d readings; want %d, %d", label,
			len(got.Trajectories), len(got.Readings), len(want.Trajectories), len(want.Readings))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, w := range want.Trajectories {
		g := got.Trajectories[i]
		if g.ID != w.ID || g.Len() != w.Len() {
			t.Fatalf("%s: trajectory %d is %s with %d points, want %s with %d", label, i, g.ID, g.Len(), w.ID, w.Len())
		}
		for j, b := range w.Points {
			a := g.Points[j]
			if !same(a.T, b.T) || !same(a.Pos.X, b.Pos.X) || !same(a.Pos.Y, b.Pos.Y) {
				t.Fatalf("%s: trajectory %d point %d is %+v, want %+v", label, i, j, a, b)
			}
		}
	}
	for i, w := range want.Readings {
		g := got.Readings[i]
		if g.SensorID != w.SensorID || !same(g.T, w.T) || !same(g.Pos.X, w.Pos.X) || !same(g.Pos.Y, w.Pos.Y) || !same(g.Value, w.Value) {
			t.Fatalf("%s: reading %d is %+v, want %+v", label, i, g, w)
		}
	}
}

// multiRoundWalk is one dense-outlier walk: removing its outliers drops
// completeness below target, so a second round plans imputation.
func multiRoundWalk() *core.Dataset {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &core.Dataset{Region: region, ExpectedInterval: 1, MaxSpeed: 10}
	dirty := simulate.AddGaussianNoise(simulate.RandomWalk("v0", region, 600, 2, 1, 50), 3, 51)
	dirty, _ = simulate.InjectOutliers(dirty, 0.2, 150, 52)
	ds.Trajectories = append(ds.Trajectories, dirty)
	return ds
}

// TestPlanAndRunIterativeMatchesAssessingEachStage: the planner
// measures quality at round boundaries only, where the runner once
// measured after every stage. Assess is a function of the dataset, so
// the plans, the stage outcomes and the output must be those of the
// reference loop, bit for bit — over several dirty datasets (one of
// which plans all four stages in its first round, after which the loop
// stops measuring), the multi-round walk, a dataset whose imputation
// degrades, clean data, both failure policies and a cancelled run.
func TestPlanAndRunIterativeMatchesAssessingEachStage(t *testing.T) {
	walk := multiRoundWalk()
	_, one, _, _ := core.PlanAndRunIterativeWith(context.Background(), nil, walk, core.DefaultTargets(), 1)
	_, three, _, _ := core.PlanAndRunIterativeWith(context.Background(), nil, walk, core.DefaultTargets(), 3)
	if len(three) <= len(one) {
		t.Fatalf("the walk plans %d stages in three rounds and %d in one: it must span several rounds", len(three), len(one))
	}
	if all := core.Plan(core.DirtyDataset(1).Assess(), core.DefaultTargets()); len(all) != 4 {
		t.Fatalf("dirty-1 plans %d stages in its first round, want all four", len(all))
	}

	degrading := core.DirtyDataset(8)
	pt := func(t float64) trajectory.Point { return trajectory.Point{T: t, Pos: geo.Pt(500, 500)} }
	degrading.Trajectories = append(degrading.Trajectories, trajectory.New("dense", []trajectory.Point{pt(0), pt(2e6)}))

	clean := multiRoundWalk()
	clean.Trajectories = []*trajectory.Trajectory{simulate.RandomWalk("v0", clean.Region, 400, 2, 1, 60)}

	datasets := map[string]*core.Dataset{"walk": walk, "degrading": degrading, "clean": clean}
	for seed := int64(1); seed <= 4; seed++ {
		datasets[fmt.Sprintf("dirty-%d", seed)] = core.DirtyDataset(seed)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ds := range datasets {
		for _, policy := range []core.FailurePolicy{core.SkipStage, core.FailFast} {
			for _, ctx := range []context.Context{context.Background(), cancelled} {
				for rounds := 1; rounds <= 3; rounds++ {
					label := fmt.Sprintf("%s/%v/rounds=%d/ctx-err=%v", name, policy, rounds, ctx.Err())
					r := &core.Runner{Policy: policy}
					var got, want run
					got.out, got.stages, got.reports, got.err = core.PlanAndRunIterativeWith(ctx, r, ds, core.DefaultTargets(), rounds)
					want.out, want.stages, want.reports, want.err = planAssessingEach(ctx, r, ds, core.DefaultTargets(), rounds)
					sameRun(t, label, got, want)
				}
			}
		}
	}
}

// runItemByItem is the reference for the runner's loop order: the
// readings alone through every stage, then each trajectory alone, in
// input order, each a run of its own. The first run that fails ends it,
// with the trajectories after it as they came in.
func runItemByItem(ctx context.Context, r *core.Runner, ds *core.Dataset, stages []core.Stage) (*core.Dataset, error) {
	out := *ds
	out.Trajectories = nil
	if len(ds.Readings) > 0 {
		alone := *ds
		alone.Trajectories = nil
		got, _, err := r.Run(ctx, &alone, stages)
		if out.Readings = got.Readings; err != nil {
			out.Trajectories = ds.Trajectories
			return &out, err
		}
	}
	for i, tr := range ds.Trajectories {
		alone := *ds
		alone.Trajectories, alone.Readings = []*trajectory.Trajectory{tr}, nil
		got, _, err := r.Run(ctx, &alone, stages)
		out.Trajectories = append(out.Trajectories, got.Trajectories...)
		if err != nil {
			out.Trajectories = append(out.Trajectories, ds.Trajectories[i+1:]...)
			return &out, err
		}
	}
	return &out, nil
}

// TestRunnerMatchesAssessingEachStage: with faults injected into every
// call, a run of a fixed stage list under SkipStage still ends as the
// same stages run one by one with an assessment after each — the
// skipped and degraded stages are the same, and the same work is kept.
// Under FailFast the run ends at the first failing call in the runner's
// order, the readings' calls first and then each trajectory through
// every stage, so its reference cleans one item at a time.
func TestRunnerMatchesAssessingEachStage(t *testing.T) {
	flaky := func(seed int64) []core.Stage {
		var out []core.Stage
		for i, st := range []core.Stage{core.DeduplicateStage{}, core.OutlierRemovalStage{}, core.SmoothingStage{}, core.ImputeStage{}, core.ThematicRepairStage{}} {
			out = append(out, chaos.NewFlakyStage(st, chaos.FlakyOptions{Seed: seed + int64(i), PanicProb: 0.3, ErrProb: 0.3}))
		}
		return out
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		ds := core.DirtyDataset(seed)
		label := fmt.Sprintf("seed=%d/skip-stage", seed)
		r := &core.Runner{Policy: core.SkipStage}
		got := run{stages: flaky(seed)}
		want := run{stages: flaky(seed)}
		got.out, got.reports, got.err = r.Run(ctx, ds, got.stages)
		want.out, want.reports, _, want.err = runAssessingEach(ctx, r, ds, want.stages, nil)
		sameRun(t, label, got, want)

		label = fmt.Sprintf("seed=%d/fail-fast", seed)
		r = &core.Runner{Policy: core.FailFast}
		out, reports, err := r.Run(ctx, ds, flaky(seed))
		wantOut, wantErr := runItemByItem(ctx, r, ds, flaky(seed))
		if err == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err %v, want %v", label, err, wantErr)
		}
		if last := reports[len(reports)-1]; last.Err == nil || last.Skipped || !strings.Contains(err.Error(), last.Stage) {
			t.Fatalf("%s: last report %+v, want the failing stage of %v", label, last, err)
		}
		sameOutput(t, label, out, wantOut)
	}
}
