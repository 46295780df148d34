package core

import (
	"context"
	"fmt"
	"sync"

	"sidq/internal/faults"
	"sidq/internal/integrate"
	"sidq/internal/outlier"
	"sidq/internal/quality"
	"sidq/internal/refine"
	"sidq/internal/roadnet"
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
// built-in, wrapper and test stage implements.
type Stage interface {
	// Name is a short human-readable identifier.
	Name() string
	// Task is the taxonomy family the stage implements.
	Task() Task
	// Apply transforms the dataset it is handed — a copy-on-write clone
	// (Dataset.CloneCOW) whose trajectories are shared with the
	// runner's input. A stage therefore replaces ds.Trajectories[i]
	// with a fresh value and never edits a trajectory's points in
	// place; it may rewrite ds.Readings freely, the clone copies them by
	// value. TestStageTraitsAreHonest holds every built-in stage to
	// this (deep-cloning instead costs clean_batch 1 064 vs 971 kB/op,
	// PR 22). Apply honours ctx cancellation and reports failure
	// instead of swallowing it; a *PartialError means degraded success.
	Apply(ctx context.Context, ds *Dataset) error
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

// orFlags is the flag scratch of the outlier stage, pooled so
// concurrent pipeline runs reuse buffers without sharing them.
type orFlags struct{ speed, stat []bool }

var orFlagsPool = sync.Pool{New: func() any { return new(orFlags) }}

// Apply implements Stage: the speed-gate and the statistical scan run
// as batch kernels over flat columns with pooled flag buffers, their
// union is compacted into a fresh trajectory, then the readings pass
// runs once.
func (s OutlierRemovalStage) Apply(ctx context.Context, ds *Dataset) error {
	scr := orFlagsPool.Get().(*orFlags)
	defer orFlagsPool.Put(scr)
	err := applyColumnar(ctx, ds, func(dst, src *trajectory.Columns) {
		scr.speed = outlier.SpeedConstraintCols(src, ds.MaxSpeed, scr.speed)
		scr.stat = outlier.StatisticalCols(src, outlier.StatisticalOptions{}, scr.stat)
		for j := range scr.speed {
			scr.speed[j] = scr.speed[j] || scr.stat[j]
		}
		outlier.RemoveCols(dst, src, scr.speed)
	})
	if err != nil || len(ds.Readings) == 0 {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	flags := outlier.Temporal(ds.Readings, outlier.TemporalOptions{})
	ds.Readings = outlier.RemoveReadings(ds.Readings, flags)
	return nil
}

// SmoothingStage applies RTS Kalman smoothing to every trajectory,
// with unit process noise and the measurement noise estimated from the
// trajectory's own roughness.
type SmoothingStage struct{}

// Name implements Stage.
func (s SmoothingStage) Name() string { return "kalman-smoothing" }

// Task implements Stage.
func (s SmoothingStage) Task() Task { return UncertaintyElimination }

// Apply implements Stage.
func (s SmoothingStage) Apply(ctx context.Context, ds *Dataset) error {
	for i, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := quality.Roughness(tr)
		if r <= 0 {
			r = 5
		}
		ds.Trajectories[i] = refine.KalmanSmoothTrajectory(tr, 1, r)
	}
	return nil
}

// DeduplicateStage removes exact duplicate trajectory points and
// merges readings that share a 1 m cell and a 1 s bucket.
type DeduplicateStage struct{}

// Name implements Stage.
func (s DeduplicateStage) Name() string { return "deduplicate" }

// Task implements Stage.
func (s DeduplicateStage) Task() Task { return DataIntegration }

// Apply implements Stage: first-occurrence exact dedup over flat
// columns with map[Point]bool float semantics (NaN always kept,
// +0 == -0), then the readings merge pass.
func (s DeduplicateStage) Apply(ctx context.Context, ds *Dataset) error {
	err := applyColumnar(ctx, ds, trajectory.DeduplicateCols)
	if err != nil || len(ds.Readings) == 0 {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ds.Readings = integrate.Deduplicate(ds.Readings, 1, 1)
	return nil
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

// Apply implements Stage. A trajectory too short to resample is left
// alone silently; one whose resampling is refused (the interval is too
// small for its time span) keeps its raw points and is counted in the
// PartialError. The whole dataset shares one budget of
// trajectory.MaxResamplePoints output points — the interval arrives
// from a request parameter and a body may hold thousands of ids — and a
// trajectory that would cross what is left of it is refused the same
// way.
func (s ImputeStage) Apply(ctx context.Context, ds *Dataset) error {
	dt := ds.ExpectedInterval
	if dt <= 0 {
		return nil
	}
	budget := float64(trajectory.MaxResamplePoints)
	failed := 0
	var last error
	for i, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tr.Len() < 2 {
			continue // too short to resample
		}
		// What is left of the budget refuses first; written as a negated
		// <= so a NaN span is refused here as Resample refuses it.
		if t0, t1, _ := tr.TimeBounds(); !((t1-t0)/dt <= budget) {
			failed++
			last = trajectory.ErrResampleTooDense
			continue
		}
		rs, err := tr.Resample(dt)
		if err != nil {
			failed++
			last = err
			continue
		}
		ds.Trajectories[i] = rs
		budget -= float64(rs.Len())
	}
	if failed > 0 {
		return &PartialError{Stage: s.Name(), Failed: failed, Total: len(ds.Trajectories), Last: last}
	}
	return nil
}

// ThematicRepairStage detects STID value outliers temporally and
// repairs them by neighborhood consensus (200 m, 600 s kernels) instead
// of dropping them.
type ThematicRepairStage struct{}

// Name implements Stage.
func (s ThematicRepairStage) Name() string { return "thematic-repair" }

// Task implements Stage.
func (s ThematicRepairStage) Task() Task { return FaultCorrection }

// Apply implements Stage.
func (s ThematicRepairStage) Apply(ctx context.Context, ds *Dataset) error {
	if len(ds.Readings) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	flags := outlier.Temporal(ds.Readings, outlier.TemporalOptions{})
	ds.Readings, _ = faults.RepairThematic(ds.Readings, flags, 200, 600)
	return nil
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

// Apply implements Stage. Trajectories whose map-match fails keep
// their raw points; the failure count is surfaced as a PartialError
// instead of being swallowed.
func (s RouteRecoverStage) Apply(ctx context.Context, ds *Dataset) error {
	if s.Graph == nil || s.Snapper == nil {
		return nil
	}
	failed := 0
	var last error
	for i, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := uncertain.MapMatch(s.Graph, s.Snapper, tr, s.Options)
		if err != nil {
			failed++
			last = err
			continue
		}
		ds.Trajectories[i] = res.Recovered
	}
	if failed > 0 {
		return &PartialError{Stage: s.Name(), Failed: failed, Total: len(ds.Trajectories), Last: last}
	}
	return nil
}
