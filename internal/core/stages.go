package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sidq/internal/faults"
	"sidq/internal/integrate"
	"sidq/internal/outlier"
	"sidq/internal/quality"
	"sidq/internal/refine"
	"sidq/internal/trajectory"
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
	// Traits declares what the Runner may exploit (cheap clones); the
	// zero value is always safe. Wrapper stages forward their inner
	// stage's traits when the wrapper itself edits no points in place.
	Traits() StageTraits
	// Apply transforms the dataset in place (the Runner hands it a
	// private clone), honouring ctx cancellation, and reports failure
	// instead of swallowing it. A *PartialError means degraded success.
	Apply(ctx context.Context, ds *Dataset) error
}

// OutlierRemovalStage drops trajectory points flagged by both the
// constraint-based and statistics-based detectors being consulted in
// union, and readings flagged by the temporal detector.
type OutlierRemovalStage struct {
	MaxSpeed float64 // physical speed bound; 0 uses the dataset's
}

// Name implements Stage.
func (s OutlierRemovalStage) Name() string { return "outlier-removal" }

// Task implements Stage.
func (s OutlierRemovalStage) Task() Task { return OutlierRemoval }

// Traits implements Stage: replace-only.
func (s OutlierRemovalStage) Traits() StageTraits { return replaceOnly }

// orFlags is the flag scratch of the outlier stage, pooled so
// concurrent pipeline runs reuse buffers without sharing them.
type orFlags struct{ speed, stat []bool }

var orFlagsPool = sync.Pool{New: func() any { return new(orFlags) }}

// Apply implements Stage: the speed-gate and the statistical scan run
// as batch kernels over flat columns with pooled flag buffers, their
// union is compacted into a fresh trajectory, then the readings pass
// runs once.
func (s OutlierRemovalStage) Apply(ctx context.Context, ds *Dataset) error {
	maxSpeed := s.MaxSpeed
	if maxSpeed <= 0 {
		maxSpeed = ds.MaxSpeed
	}
	scr := orFlagsPool.Get().(*orFlags)
	defer orFlagsPool.Put(scr)
	err := applyColumnar(ctx, ds, func(dst, src *trajectory.Columns) {
		scr.speed = outlier.SpeedConstraintCols(src, maxSpeed, scr.speed)
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

// SmoothingStage applies RTS Kalman smoothing to every trajectory.
type SmoothingStage struct {
	ProcessNoise float64 // default 1
	MeasNoise    float64 // default: the measured precision error
}

// Name implements Stage.
func (s SmoothingStage) Name() string { return "kalman-smoothing" }

// Task implements Stage.
func (s SmoothingStage) Task() Task { return UncertaintyElimination }

// Traits implements Stage: replace-only.
func (s SmoothingStage) Traits() StageTraits { return replaceOnly }

// Apply implements Stage.
func (s SmoothingStage) Apply(ctx context.Context, ds *Dataset) error {
	q := s.ProcessNoise
	if q <= 0 {
		q = 1
	}
	for i, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := s.MeasNoise
		if r <= 0 {
			// Estimate the noise level from the data itself.
			a := quality.Roughness(tr)
			if a <= 0 {
				a = 5
			}
			r = a
		}
		ds.Trajectories[i] = refine.KalmanSmoothTrajectory(tr, q, r)
	}
	return nil
}

// TimestampRepairStage repairs per-trajectory timestamp sequences to
// satisfy gap constraints.
type TimestampRepairStage struct {
	MinGap, MaxGap float64
}

// Name implements Stage.
func (s TimestampRepairStage) Name() string { return "timestamp-repair" }

// Task implements Stage.
func (s TimestampRepairStage) Task() Task { return FaultCorrection }

// Traits implements Stage: replace-only.
func (s TimestampRepairStage) Traits() StageTraits { return replaceOnly }

// Apply implements Stage. Unrepairable trajectories keep their raw
// timestamps and are counted in the PartialError. Repairs replace the
// trajectory rather than editing its points in place, so the stage is
// safe on copy-on-write clones.
func (s TimestampRepairStage) Apply(ctx context.Context, ds *Dataset) error {
	failed := 0
	var last error
	for i, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		ts := make([]float64, tr.Len())
		for j, p := range tr.Points {
			ts[j] = p.T
		}
		repaired, err := faults.RepairTimestamps(ts, s.MinGap, s.MaxGap)
		if err != nil {
			failed++
			last = err
			continue
		}
		out := tr.Clone()
		for j := range out.Points {
			out.Points[j].T = repaired[j]
		}
		ds.Trajectories[i] = out
	}
	if failed > 0 {
		return &PartialError{Stage: s.Name(), Failed: failed, Total: len(ds.Trajectories), Last: last}
	}
	return nil
}

// DeduplicateStage removes exact duplicate trajectory points and
// merges redundant readings.
type DeduplicateStage struct {
	CellSize   float64 // reading dedup cell (default 1 m)
	TimeBucket float64 // reading dedup bucket (default 1 s)
}

// Name implements Stage.
func (s DeduplicateStage) Name() string { return "deduplicate" }

// Task implements Stage.
func (s DeduplicateStage) Task() Task { return DataIntegration }

// Traits implements Stage: replace-only.
func (s DeduplicateStage) Traits() StageTraits { return replaceOnly }

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
	ds.Readings = integrate.Deduplicate(ds.Readings, s.CellSize, s.TimeBucket)
	return nil
}

// ImputeStage resamples each trajectory at the dataset's expected
// interval, filling gaps by interpolation (the simplest inference-based
// completeness repair; map matching is available via RouteRecoverStage
// when a road network exists).
type ImputeStage struct {
	Interval float64 // default: dataset ExpectedInterval
}

// Name implements Stage.
func (s ImputeStage) Name() string { return "interpolation-impute" }

// Task implements Stage.
func (s ImputeStage) Task() Task { return UncertaintyElimination }

// Traits implements Stage: replace-only.
func (s ImputeStage) Traits() StageTraits { return replaceOnly }

// Apply implements Stage. A trajectory too short to resample is left
// alone silently; one whose resampling is refused (the interval is too
// small for its time span) keeps its raw points and is counted in the
// PartialError.
func (s ImputeStage) Apply(ctx context.Context, ds *Dataset) error {
	dt := s.Interval
	if dt <= 0 {
		dt = ds.ExpectedInterval
	}
	if dt <= 0 {
		return nil
	}
	failed := 0
	var last error
	for i, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		rs, err := tr.Resample(dt)
		switch {
		case err == nil:
			ds.Trajectories[i] = rs
		case !errors.Is(err, trajectory.ErrTooShort):
			failed++
			last = err
		}
	}
	if failed > 0 {
		return &PartialError{Stage: s.Name(), Failed: failed, Total: len(ds.Trajectories), Last: last}
	}
	return nil
}

// ThematicRepairStage detects STID value outliers temporally and
// repairs them by neighborhood consensus instead of dropping them.
type ThematicRepairStage struct {
	SpaceSigma, TimeSigma float64
}

// Name implements Stage.
func (s ThematicRepairStage) Name() string { return "thematic-repair" }

// Task implements Stage.
func (s ThematicRepairStage) Task() Task { return FaultCorrection }

// Traits implements Stage: replace-only.
func (s ThematicRepairStage) Traits() StageTraits { return replaceOnly }

// Apply implements Stage.
func (s ThematicRepairStage) Apply(ctx context.Context, ds *Dataset) error {
	if len(ds.Readings) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	flags := outlier.Temporal(ds.Readings, outlier.TemporalOptions{})
	ss := s.SpaceSigma
	if ss <= 0 {
		ss = 200
	}
	ts := s.TimeSigma
	if ts <= 0 {
		ts = 600
	}
	ds.Readings, _ = faults.RepairThematic(ds.Readings, flags, ss, ts)
	return nil
}
