package core

import (
	"context"
	"time"

	"sidq/internal/quality"
	"sidq/internal/roadnet"
	"sidq/internal/uncertain"
)

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

// StageReport records the quality movement caused by one stage,
// together with the runner's execution record for it.
type StageReport struct {
	Stage  string
	Task   Task
	Before quality.Assessment
	After  quality.Assessment

	// Execution record (populated by the Runner).
	Err      error          // stage error (PartialError for degraded success)
	Skipped  bool           // stage failed and its work was discarded
	Duration time.Duration  // wall time of the stage and its re-assessment
	Meta     map[string]int // stage counters (e.g. partial-failure accounting)
}

// Pipeline is an ordered list of cleaning stages.
type Pipeline struct {
	Stages []Stage
}

// NewPipeline returns a pipeline over the given stages.
func NewPipeline(stages ...Stage) *Pipeline { return &Pipeline{Stages: stages} }

// RunContext applies every stage in order on the given runner (nil
// selects DefaultRunner), leaving ds untouched, and returns the cleaned
// dataset together with per-stage before/after assessments.
func (p *Pipeline) RunContext(ctx context.Context, r *Runner, ds *Dataset) (*Dataset, []StageReport, error) {
	if r == nil {
		r = DefaultRunner()
	}
	return r.Run(ctx, p, ds)
}
