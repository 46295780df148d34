package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sidq/internal/obs"
	"sidq/internal/quality"
)

// PartialError reports a stage that completed in a degraded way: some
// items failed while the rest were processed. The Runner records it in
// the stage report but does not retry, skip, or roll back — the stage's
// surviving work is kept.
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

// FailurePolicy selects what the Runner does when a stage fails after
// all retry attempts, or (under RollbackStage) regresses quality.
type FailurePolicy int

const (
	// FailFast aborts the run on the first stage failure, returning the
	// dataset as cleaned so far together with the error.
	FailFast FailurePolicy = iota
	// SkipStage discards the failing stage's work and continues the
	// pipeline from the pre-stage dataset.
	SkipStage
	// RollbackStage behaves like SkipStage on error and additionally
	// guards against quality regressions: a stage that succeeds but
	// leaves the assessment materially worse than before is rolled
	// back.
	RollbackStage
)

// String implements fmt.Stringer.
func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case SkipStage:
		return "skip-stage"
	case RollbackStage:
		return "rollback-stage"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// RetryPolicy bounds per-stage retries with exponential backoff and
// jitter. The zero value means a single attempt and no waiting.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per stage (<=0 means 1)
	BaseDelay   time.Duration // delay before the 2nd attempt
	MaxDelay    time.Duration // backoff cap (0 = uncapped)
	Multiplier  float64       // backoff growth factor (<=1 means 2)
	JitterFrac  float64       // +/- fraction of the delay randomized, in [0, 1]
}

// attempts normalizes MaxAttempts.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff delay after the given 1-indexed failed
// attempt, jittered by rng when JitterFrac > 0 (nil rng disables
// jitter).
func (p RetryPolicy) Delay(attempt int, rng *rand.Rand) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.BaseDelay) * math.Pow(mult, float64(attempt-1))
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.JitterFrac > 0 && rng != nil {
		j := p.JitterFrac
		if j > 1 {
			j = 1
		}
		d *= 1 - j + 2*j*rng.Float64()
	}
	return time.Duration(d)
}

// Runner executes pipelines resiliently: per-stage deadlines, panic
// recovery, bounded retry with exponential backoff + jitter, and a
// configurable failure policy including a quality-regression guard.
// The zero value applies every stage once and stops at the first that
// fails or panics (FailFast), returning the error instead of dying.
type Runner struct {
	Policy       FailurePolicy
	Retry        RetryPolicy
	StageTimeout time.Duration // per-attempt deadline (0 = none)

	// GuardTol is the relative tolerance of the quality-regression
	// guard used by RollbackStage (default 0.05 = 5%).
	GuardTol float64
	// GuardDims restricts the regression guard to these dimensions
	// (nil = every measured dimension).
	GuardDims []quality.Dimension

	// Sleep is the backoff sleeper, overridable for deterministic
	// tests; it is never called with 0. The default waits on a timer
	// that a cancelled run cuts short.
	Sleep func(time.Duration)
	// Rand seeds backoff jitter (nil disables jitter).
	Rand *rand.Rand
	// OnEvent, when set, observes retry/skip/rollback decisions as
	// human-readable messages (e.g. hook it to a logger).
	OnEvent func(stage, event string)

	// Obs, when set, receives runner metrics: per-stage latency and
	// outcome counts and retry/panic/rollback/skip counters. Nil
	// disables metrics at zero cost (the zero-overhead contract in
	// DESIGN.md).
	Obs *obs.Registry
	// Trace, when set, receives structured execution events (stage
	// completions, retries, panics, skips, rollbacks). Nil disables
	// tracing at zero cost.
	Trace TraceSink
}

// DefaultRunner returns the runner a nil *Runner selects: skip failing
// stages, one attempt, no deadlines, no regression guard.
func DefaultRunner() *Runner { return &Runner{Policy: SkipStage} }

func (r *Runner) event(stage, format string, args ...interface{}) {
	if r.OnEvent != nil {
		r.OnEvent(stage, fmt.Sprintf(format, args...))
	}
}

// Run executes the pipeline's stages in order over a clone of ds,
// re-assessing quality around every stage. It never panics because of
// a stage: panics become errors subject to retry and the failure
// policy. The returned error is non-nil only under FailFast (or when
// ctx itself is cancelled); the reports always cover every stage
// reached, including skipped and rolled-back ones.
func (r *Runner) Run(ctx context.Context, p *Pipeline, ds *Dataset) (*Dataset, []StageReport, error) {
	return r.run(ctx, p, ds, nil)
}

// run is Run for a caller that may already hold ds's assessment (the
// planner assesses in order to plan, and a stage's After is the next
// round's starting point): before, when non-nil, is taken as that
// assessment instead of measuring the same data again.
func (r *Runner) run(ctx context.Context, p *Pipeline, ds *Dataset, before quality.Assessment) (*Dataset, []StageReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cur := ds.Clone()
	reports := make([]StageReport, 0, len(p.Stages))
	if before == nil {
		before = cur.Assess()
	}
	for _, st := range p.Stages {
		if err := ctx.Err(); err != nil {
			return cur, reports, fmt.Errorf("pipeline cancelled before stage %s: %w", st.Name(), err)
		}
		work, rep := r.runStage(ctx, st, cur, before)
		switch {
		case rep.Err != nil && !rep.Skipped && !isPartial(rep.Err):
			// FailFast: surface the error with the progress so far.
			reports = append(reports, rep)
			return cur, reports, fmt.Errorf("stage %s failed: %w", st.Name(), rep.Err)
		case rep.Skipped || rep.RolledBack:
			// Keep the pre-stage dataset; Before/After chain stays flat.
			rep.After = before
			reports = append(reports, rep)
		default:
			cur = work
			before = rep.After
			reports = append(reports, rep)
		}
	}
	return cur, reports, nil
}

func isPartial(err error) bool {
	var pe *PartialError
	return errors.As(err, &pe)
}

// regressions returns the guarded dimensions on which after is
// materially worse than before.
func (r *Runner) regressions(after, before quality.Assessment) []quality.Dimension {
	tol := r.GuardTol
	if tol <= 0 {
		tol = 0.05
	}
	worse := after.WorseThan(before, tol)
	if len(r.GuardDims) == 0 || len(worse) == 0 {
		return worse
	}
	guarded := map[quality.Dimension]bool{}
	for _, d := range r.GuardDims {
		guarded[d] = true
	}
	out := worse[:0]
	for _, d := range worse {
		if guarded[d] {
			out = append(out, d)
		}
	}
	return out
}

// cloneForStage returns the per-attempt working copy of ds for st: a
// copy-on-write clone when the stage declares it only replaces
// trajectory entries, a deep clone otherwise.
func cloneForStage(ds *Dataset, st Stage) *Dataset {
	if st.Traits().ReplacesTrajectories {
		return ds.CloneCOW()
	}
	return ds.Clone()
}

// runStage executes one stage over cur and returns the (possibly new)
// dataset and the report; on failure, skip or rollback the caller keeps
// cur — a failed stage contributes nothing. The results are named so
// the deferred duration-stamping and observation see the report
// actually returned.
func (r *Runner) runStage(ctx context.Context, st Stage, cur *Dataset, before quality.Assessment) (out *Dataset, rep StageReport) {
	rep = StageReport{
		Stage:  st.Name(),
		Task:   st.Task(),
		Before: before,
	}
	start := time.Now()
	defer func() {
		rep.Duration = time.Since(start)
		r.observeStage(&rep)
	}()

	work, attempts, err := r.retry(ctx, st, cur)
	rep.Attempts, rep.Err = attempts, err
	if err != nil && !isPartial(err) {
		if r.Policy == SkipStage || r.Policy == RollbackStage {
			rep.Skipped = true
			r.event(st.Name(), "skipped after %d attempts: %v", rep.Attempts, err)
			r.obsSkip(st.Name(), rep.Attempts, err)
		}
		return cur, rep
	}
	if pe := (*PartialError)(nil); errors.As(err, &pe) {
		rep.Meta = map[string]int{"failed": pe.Failed, "total": pe.Total}
	}
	rep.After = work.Assess()
	if r.Policy == RollbackStage {
		if worse := r.regressions(rep.After, before); len(worse) > 0 {
			rep.RolledBack = true
			r.event(st.Name(), "rolled back: regressed %v", worse)
			r.obsRollback(st.Name())
			return cur, rep
		}
	}
	return work, rep
}

// retry is the runner's one retry loop: every attempt works on a fresh
// clone of cur (copy-on-write when the stage allows it), so a failed or
// timed-out attempt never leaks partial mutations. It returns the
// post-stage dataset on success (possibly with a PartialError), or the
// last attempt's error once retries are exhausted or ctx is cancelled,
// together with the number of attempts started.
func (r *Runner) retry(ctx context.Context, st Stage, cur *Dataset) (*Dataset, int, error) {
	max := r.Retry.attempts()
	for attempt := 1; ; attempt++ {
		work := cloneForStage(cur, st)
		err := r.attempt(ctx, st, work)
		if err == nil || isPartial(err) {
			return work, attempt, err
		}
		// A cancelled run cannot be helped by retrying, whether the
		// cancellation ended the attempt or arrives during the backoff.
		again := attempt < max && ctx.Err() == nil
		if again {
			if d := r.Retry.Delay(attempt, r.Rand); d > 0 {
				again = r.backoff(ctx, d)
			}
		}
		r.obsAttemptFailure(st.Name(), attempt, err, again)
		if !again {
			return nil, attempt, err
		}
		r.event(st.Name(), "attempt %d/%d failed, retrying: %v", attempt, max, err)
	}
}

// backoff waits d before the next attempt and reports whether the run
// is still live afterwards. Without an injected Sleep the wait ends
// early when ctx is cancelled.
func (r *Runner) backoff(ctx context.Context, d time.Duration) bool {
	if r.Sleep != nil {
		r.Sleep(d)
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt runs one stage execution with panic recovery and the
// per-attempt deadline. The stage runs in its own goroutine so that a
// runaway Apply that ignores ctx is abandoned at the deadline; it keeps
// mutating only its private clone.
func (r *Runner) attempt(parent context.Context, st Stage, work *Dataset) error {
	ctx := parent
	cancel := func() {}
	if r.StageTimeout > 0 {
		ctx, cancel = context.WithTimeout(parent, r.StageTimeout)
	}
	defer cancel()

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
		if parent.Err() != nil {
			return parent.Err()
		}
		return fmt.Errorf("stage %s exceeded deadline %v: %w", st.Name(), r.StageTimeout, ctx.Err())
	}
}
