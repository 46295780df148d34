package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sidq/internal/obs"
)

// PartialError reports a stage that completed in a degraded way: some
// items failed while the rest were processed. The Runner records it in
// the stage report but does not skip — the stage's surviving work is
// kept.
type PartialError struct {
	Stage  string
	Failed int
	Total  int
	Last   error // last underlying failure, if any
}

// Error implements error.
func (e *PartialError) Error() string {
	if e.Last != nil {
		return fmt.Sprintf("stage %s: %d/%d items failed (last: %v)", e.Stage, e.Failed, e.Total, e.Last)
	}
	return fmt.Sprintf("stage %s: %d/%d items failed", e.Stage, e.Failed, e.Total)
}

// Unwrap exposes the last underlying failure to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Last }

// FailurePolicy selects what the Runner does when a stage fails.
type FailurePolicy int

const (
	// FailFast aborts the run on the first stage failure, returning the
	// dataset as cleaned so far together with the error.
	FailFast FailurePolicy = iota
	// SkipStage discards the failing stage's work and continues the
	// pipeline from the pre-stage dataset.
	SkipStage
)

// String implements fmt.Stringer.
func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case SkipStage:
		return "skip-stage"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// StageReport is the runner's execution record for one stage.
type StageReport struct {
	Stage    string
	Task     Task
	Err      error          // stage error (PartialError for degraded success)
	Skipped  bool           // stage failed and its work was discarded
	Duration time.Duration  // wall time of the stage's clone and attempt
	Meta     map[string]int // stage counters (e.g. partial-failure accounting)
}

// Runner executes a list of stages resiliently: every stage gets one
// attempt on a private copy-on-write clone, a panic becomes an error,
// and the failure policy decides whether an error ends the run. The
// zero value stops at the first stage that fails or panics (FailFast),
// returning the error instead of dying.
type Runner struct {
	Policy FailurePolicy

	// Obs, when set, receives runner metrics: per-stage latency and
	// outcome counts and panic/skip counters. Nil disables metrics at
	// zero cost (the zero-overhead contract in DESIGN.md).
	Obs *obs.Registry
	// Trace, when set, receives structured execution events (stage
	// completions, panics, skips). Nil disables tracing at zero cost.
	Trace TraceSink
}

// DefaultRunner returns the runner a nil *Runner selects: skip failing
// stages.
func DefaultRunner() *Runner { return &Runner{Policy: SkipStage} }

// Run executes stages in order. ds is left bit-identical: each stage
// works on a copy-on-write clone and, by the Stage contract, replaces
// trajectories instead of editing their points — so the output may
// share untouched *Trajectory values with ds, and is ds itself when no
// stage's work was kept. Run never panics because of a stage: a panic
// is an error subject to the failure policy. The returned error is
// non-nil under FailFast, or when ctx is cancelled before or during a
// stage; the reports always cover every stage reached, skipped ones
// included. Run does not assess quality: a caller that wants the
// movement measures the input and the output.
func (r *Runner) Run(ctx context.Context, ds *Dataset, stages []Stage) (*Dataset, []StageReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cur := ds
	reports := make([]StageReport, 0, len(stages))
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return cur, reports, fmt.Errorf("pipeline cancelled before stage %s: %w", st.Name(), err)
		}
		work, rep, err := r.runStage(ctx, st, cur)
		reports = append(reports, rep)
		if err != nil {
			return cur, reports, err
		}
		cur = work
	}
	return cur, reports, nil
}

// runStage gives st its one attempt over a copy-on-write clone of cur
// and returns the dataset the run continues from — the clone when the
// stage's work is kept, cur when it is skipped — with the report. The
// error is the one that ends the run: a failure under FailFast, or an
// attempt that died with the run's ctx, which is a cancellation and not
// a skip whatever the policy.
func (r *Runner) runStage(ctx context.Context, st Stage, cur *Dataset) (*Dataset, StageReport, error) {
	rep := StageReport{Stage: st.Name(), Task: st.Task()}
	start := time.Now()
	work := cur.CloneCOW()
	rep.Err = attempt(ctx, st, work)
	rep.Duration = time.Since(start)

	outcome := "ok"
	var fatal error
	var pe *PartialError
	switch {
	case rep.Err == nil:
	case errors.As(rep.Err, &pe):
		outcome = "degraded"
		rep.Meta = map[string]int{"failed": pe.Failed, "total": pe.Total}
	case ctx.Err() != nil:
		outcome = "cancelled"
		fatal = fmt.Errorf("pipeline cancelled during stage %s: %w", st.Name(), ctx.Err())
	case r.Policy == SkipStage:
		outcome = "skipped"
		rep.Skipped = true
		work = cur // keep the pre-stage dataset
	default:
		outcome = "failed"
		fatal = fmt.Errorf("stage %s failed: %w", st.Name(), rep.Err)
	}
	r.observeStage(&rep, outcome)
	return work, rep, fatal
}

// attempt runs one stage execution with panic recovery. The stage runs
// in its own goroutine so that a runaway Apply that ignores ctx is
// abandoned when the run is cancelled; it keeps mutating only its
// private clone.
func attempt(ctx context.Context, st Stage, work *Dataset) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- &panicError{stage: st.Name(), val: p}
			}
		}()
		done <- st.Apply(ctx, work)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}
