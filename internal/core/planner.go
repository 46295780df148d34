package core

import (
	"context"

	"sidq/internal/quality"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// Targets is a quality target profile for the planner: the thresholds
// a dataset must meet. Zero-valued fields are ignored.
type Targets struct {
	MinConsistency    float64 // e.g. 0.95
	MaxPrecisionError float64 // meters
	MinCompleteness   float64 // [0, 1]
	MaxRedundancy     float64 // [0, 1]
}

// DefaultTargets is a reasonable profile for consumer applications.
func DefaultTargets() Targets {
	return Targets{
		MinConsistency:    0.95,
		MaxPrecisionError: 5,
		MinCompleteness:   0.9,
		MaxRedundancy:     0.01,
	}
}

// Plan inspects an assessment and returns the stages needed to reach
// the targets, in a dependency-respecting order:
//
//  1. deduplication (redundancy) — before anything that would smear
//     duplicates around;
//  2. outlier removal (consistency) — before smoothing, which would
//     otherwise drag estimates toward gross errors;
//  3. smoothing (precision);
//  4. interpolation imputation (completeness) — last, so it fills from
//     already-clean data.
//
// This is the paper's "DQ-aware task planning" open issue realized for
// the single-node case.
func Plan(a quality.Assessment, t Targets) []Stage {
	var stages []Stage
	for _, r := range planRules {
		v, ok := a[r.dim]
		if target := r.target(t); ok && target > 0 && (r.ceiling && v > target || !r.ceiling && v < target) {
			stages = append(stages, r.stage)
		}
	}
	return stages
}

// planRules are Plan's rules in the order it returns their stages: a
// stage is needed when its dimension is measured and misses a set
// target, from above for a ceiling and from below for a floor.
var planRules = [...]struct {
	stage   Stage
	dim     quality.Dimension
	ceiling bool
	target  func(Targets) float64
}{
	{DeduplicateStage{}, quality.Redundancy, true, func(t Targets) float64 { return t.MaxRedundancy }},
	{OutlierRemovalStage{}, quality.Consistency, false, func(t Targets) float64 { return t.MinConsistency }},
	{SmoothingStage{}, quality.PrecisionError, true, func(t Targets) float64 { return t.MaxPrecisionError }},
	{ImputeStage{}, quality.Completeness, false, func(t Targets) float64 { return t.MinCompleteness }},
}

// PlanAndRunIterativeWith repeats assess-plan-run until the targets are
// met or no further stages are planned, up to maxRounds rounds. Cleaning
// can itself create deficits (dropping outliers lowers completeness,
// for example), which a single planning pass cannot anticipate; the
// re-assessment loop closes that gap. A stage type is applied at most
// once across rounds to guarantee termination. It executes on the
// caller's runner (nil selects DefaultRunner) — the hook services and
// CLIs use to attach observability to planned cleaning. The error is
// non-nil only when the runner's policy surfaces one (FailFast) or ctx
// is cancelled before or during a stage; the returned dataset
// then reflects the progress made before the failure.
func PlanAndRunIterativeWith(ctx context.Context, r *Runner, ds *Dataset, t Targets, maxRounds int) (*Dataset, []Stage, []StageReport, error) {
	c := &collector{trs: make([]*trajectory.Trajectory, 0, len(ds.Trajectories))}
	last, rs, stages, reports, err := planRounds(ctx, r, ds, t, maxRounds, c)
	return c.dataset(last, rs, err), stages, reports, err
}

// PlanAndStream is PlanAndRunIterativeWith with the last round cleaned
// into sink, one trajectory at a time as each leaves its last stage.
// sink's Begin gets every stage the run applies before the first Put.
// It returns the stages and reports, and what ended the run early.
func PlanAndStream(ctx context.Context, r *Runner, ds *Dataset, t Targets, maxRounds int, sink Sink) ([]Stage, []StageReport, error) {
	_, _, stages, reports, err := planRounds(ctx, r, ds, t, maxRounds, sink)
	return stages, reports, err
}

// planRounds is the assess-plan-run loop. A round that a later round
// may follow keeps one cleaned copy (Runner.Run), and the next plan is
// made from it. The last round — nothing more is planned, maxRounds is
// reached, or every stage Plan can return has run — goes to sink. It
// returns that round's input and readings, or, when an earlier round
// fails, that round's output and its readings.
func planRounds(ctx context.Context, r *Runner, ds *Dataset, t Targets, maxRounds int, sink Sink) (*Dataset, []stid.Reading, []Stage, []StageReport, error) {
	if r == nil {
		r = DefaultRunner()
	}
	// Quality is measured at round boundaries only: the input here, and
	// a round's output when another round may plan from it.
	cur, assessed := ds, ds.Assess()
	var allStages []Stage
	var allReports []StageReport
	applied := map[string]bool{}
	for round := 1; ; round++ {
		var stages []Stage
		for _, s := range Plan(assessed, t) {
			if applied[s.Name()] {
				continue
			}
			applied[s.Name()] = true
			stages = append(stages, s)
		}
		allStages = append(allStages, stages...)
		if len(stages) == 0 || round >= maxRounds || len(applied) == len(planRules) {
			sink.Begin(allStages)
			rs, reports, err := r.run(ctx, cur, stages, sink)
			return cur, rs, allStages, append(allReports, reports...), err
		}
		out, reports, err := r.Run(ctx, cur, stages)
		allReports = append(allReports, reports...)
		if err != nil {
			return out, out.Readings, allStages, allReports, err
		}
		cur, assessed = out, out.Assess()
	}
}
