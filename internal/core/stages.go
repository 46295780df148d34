package core

import (
	"context"
	"fmt"
	"slices"

	"sidq/internal/faults"
	"sidq/internal/integrate"
	"sidq/internal/outlier"
	"sidq/internal/quality"
	"sidq/internal/refine"
	"sidq/internal/roadnet"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// Task identifies a §2.2 quality-management task family.
type Task int

// The task families of the paper's pre-processing and localization
// layers.
const (
	LocationRefinement Task = iota
	UncertaintyElimination
	OutlierRemoval
	FaultCorrection
	DataIntegration
	DataReduction
)

var taskNames = map[Task]string{
	LocationRefinement:     "location refinement",
	UncertaintyElimination: "uncertainty elimination",
	OutlierRemoval:         "outlier removal",
	FaultCorrection:        "fault correction",
	DataIntegration:        "data integration",
	DataReduction:          "data reduction",
}

// String implements fmt.Stringer.
func (t Task) String() string {
	if s, ok := taskNames[t]; ok {
		return s
	}
	return fmt.Sprintf("task(%d)", int(t))
}

// Stage is one cleaning step in a pipeline — the single contract every
// built-in, wrapper and test stage implements. The runner takes each
// trajectory through every stage of a round in turn, so a stage works
// on one trajectory per call; the readings are cleaned dataset-wide, in
// one call.
type Stage interface {
	// Name is a short human-readable identifier.
	Name() string
	// Task is the taxonomy family the stage implements.
	Task() Task
	// CleanPoints cleans one trajectory: it appends the cleaned points
	// to dst and returns the extended slice, or returns tr.Points
	// itself, at no cost, when it leaves tr as it is. It never writes
	// tr.Points, and keeps no view of tr, dst or its result once it
	// returns: dst is one of the run's two point buffers, and the next
	// stage appends into the other. An error or a panic leaves the
	// trajectory at tr.Points. TestStageTraitsAreHonest holds every
	// built-in stage to this.
	CleanPoints(ctx context.Context, run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error)
	// CleanReadings returns the dataset's readings cleaned: a fresh
	// slice, or rs itself when it changes none. It never writes rs. The
	// runner calls it only when there are readings.
	CleanReadings(ctx context.Context, run *StageRun, rs []stid.Reading) ([]stid.Reading, error)
}

// StageRun is what one stage's calls in one round share: the round's
// input dataset, whose context they read and never write, the
// resample budget ImputeStage spends, and the round's scratch.
type StageRun struct {
	*Dataset
	// Budget is what is left of the round's trajectory.MaxResamplePoints
	// output points, spent in trajectory order: the interval arrives
	// from a request parameter and a body may hold thousands of ids.
	Budget float64
	// scratch is the worker's round scratch; nil in a StageRun built
	// outside a round, where a stage allocates its own.
	scratch *roundScratch
}

// OutlierRemovalStage drops trajectory points flagged by both the
// constraint-based and statistics-based detectors being consulted in
// union, and readings flagged by the temporal detector.
// The speed bound is the dataset's MaxSpeed.
type OutlierRemovalStage struct{}

// Name implements Stage.
func (s OutlierRemovalStage) Name() string { return "outlier-removal" }

// Task implements Stage.
func (s OutlierRemovalStage) Task() Task { return OutlierRemoval }

// CleanPoints implements Stage: the speed gate and the statistical
// scan flag the trajectory into the round scratch's flag slices, and
// the points neither flags are appended to dst.
func (s OutlierRemovalStage) CleanPoints(_ context.Context, run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	scr := run.scratch
	if scr == nil {
		scr = new(roundScratch)
	}
	scr.speed = outlier.SpeedConstraint(tr.Points, run.MaxSpeed, scr.speed)
	scr.stat = outlier.Statistical(tr.Points, outlier.StatisticalOptions{}, scr.stat, &scr.floats)
	kept := len(tr.Points)
	for j := range scr.speed {
		scr.speed[j] = scr.speed[j] || scr.stat[j]
		if scr.speed[j] {
			kept--
		}
	}
	if kept == len(tr.Points) {
		return tr.Points, nil
	}
	return outlier.AppendKept(slices.Grow(dst, kept), tr.Points, scr.speed), nil
}

// CleanReadings implements Stage: the temporal detector's flags are
// dropped.
func (s OutlierRemovalStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return outlier.RemoveReadings(rs, outlier.Temporal(rs, outlier.TemporalOptions{})), nil
}

// SmoothingStage applies RTS Kalman smoothing to every trajectory,
// with unit process noise and the measurement noise estimated from the
// trajectory's own roughness.
type SmoothingStage struct{}

// Name implements Stage.
func (s SmoothingStage) Name() string { return "kalman-smoothing" }

// Task implements Stage.
func (s SmoothingStage) Task() Task { return UncertaintyElimination }

// CleanPoints implements Stage.
func (s SmoothingStage) CleanPoints(_ context.Context, _ *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	r := quality.Roughness(tr)
	if r <= 0 {
		r = 5
	}
	return refine.AppendKalmanSmoothed(dst, tr, 1, r), nil
}

// CleanReadings implements Stage: readings are left as they are.
func (s SmoothingStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}

// DeduplicateStage removes exact duplicate trajectory points and
// merges readings that share a 1 m cell and a 1 s bucket.
type DeduplicateStage struct{}

// Name implements Stage.
func (s DeduplicateStage) Name() string { return "deduplicate" }

// Task implements Stage.
func (s DeduplicateStage) Task() Task { return DataIntegration }

// CleanPoints implements Stage: first-occurrence exact dedup with
// map[Point]bool float semantics (NaN always kept, +0 == -0).
func (s DeduplicateStage) CleanPoints(_ context.Context, _ *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	return trajectory.AppendDeduplicated(dst, tr.Points), nil
}

// CleanReadings implements Stage: the readings merge pass.
func (s DeduplicateStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return integrate.Deduplicate(rs, 1, 1), nil
}

// ImputeStage resamples each trajectory at the dataset's expected
// interval, filling gaps by interpolation (the simplest inference-based
// completeness repair; map matching is available via RouteRecoverStage
// when a road network exists).
type ImputeStage struct{}

// Name implements Stage.
func (s ImputeStage) Name() string { return "interpolation-impute" }

// Task implements Stage.
func (s ImputeStage) Task() Task { return UncertaintyElimination }

// CleanPoints implements Stage. A trajectory too short to resample is
// left alone silently; one whose resampling is refused (the interval is
// too small for its time span) fails its call and so keeps its points.
// The round's trajectories share the run's Budget, and a trajectory
// that would cross what is left of it is refused the same way.
func (s ImputeStage) CleanPoints(_ context.Context, run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	dt := run.ExpectedInterval
	if dt <= 0 || tr.Len() < 2 {
		return tr.Points, nil
	}
	// What is left of the budget refuses first; written as a negated <=
	// so a NaN span is refused here as Resample refuses it.
	if t0, t1, _ := tr.TimeBounds(); !((t1-t0)/dt <= run.Budget) {
		return nil, trajectory.ErrResampleTooDense
	}
	out, err := tr.AppendResample(dst, dt)
	if err != nil {
		return nil, err
	}
	run.Budget -= float64(len(out) - len(dst))
	return out, nil
}

// CleanReadings implements Stage: readings are left as they are.
func (s ImputeStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}

// ThematicRepairStage detects STID value outliers temporally and
// repairs them by neighborhood consensus (200 m, 600 s kernels) instead
// of dropping them.
type ThematicRepairStage struct{}

// Name implements Stage.
func (s ThematicRepairStage) Name() string { return "thematic-repair" }

// Task implements Stage.
func (s ThematicRepairStage) Task() Task { return FaultCorrection }

// CleanPoints implements Stage: trajectories are left as they are.
func (s ThematicRepairStage) CleanPoints(_ context.Context, _ *StageRun, tr *trajectory.Trajectory, _ []trajectory.Point) ([]trajectory.Point, error) {
	return tr.Points, nil
}

// CleanReadings implements Stage.
func (s ThematicRepairStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	repaired, _ := faults.RepairThematic(rs, outlier.Temporal(rs, outlier.TemporalOptions{}), 200, 600)
	return repaired, nil
}

// ReadingsStages is the fixed cleaning policy for sensor readings:
// deduplication, then thematic repair.
func ReadingsStages() []Stage { return []Stage{DeduplicateStage{}, ThematicRepairStage{}} }

// RouteRecoverStage map-matches trajectories to a road network and
// replaces them with the recovered network-constrained paths — the
// inference-based completeness/accuracy repair for sparse urban GPS.
type RouteRecoverStage struct {
	Graph   *roadnet.Graph
	Snapper *roadnet.Snapper
	Options uncertain.MatchOptions
}

// Name implements Stage.
func (s RouteRecoverStage) Name() string { return "route-recovery" }

// Task implements Stage.
func (s RouteRecoverStage) Task() Task { return UncertaintyElimination }

// CleanPoints implements Stage. A trajectory whose map-match fails
// fails its call and so keeps its raw points; the runner counts it in
// the stage's PartialError instead of swallowing it.
func (s RouteRecoverStage) CleanPoints(_ context.Context, _ *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	if s.Graph == nil || s.Snapper == nil {
		return tr.Points, nil
	}
	res, err := uncertain.MapMatch(s.Graph, s.Snapper, tr, s.Options)
	if err != nil {
		return nil, err
	}
	return append(dst, res.Recovered.Points...), nil
}

// CleanReadings implements Stage: readings are left as they are.
func (s RouteRecoverStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}
