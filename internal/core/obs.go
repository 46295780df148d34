package core

// Observability wiring for the Runner. Everything here is nil-guarded:
// a runner with no Obs registry and no Trace sink pays only those nil
// checks, and they sit at stage granularity (a handful per pipeline
// run), never inside per-point loops — the zero-overhead contract
// documented in DESIGN.md and guarded by BenchmarkRunnerObsOverhead.

import (
	"fmt"

	"sidq/internal/obs"
)

// TraceSink receives structured runner execution events. It is the
// obs.TraceSink contract re-exported so chaos scenarios and services
// can depend on core alone.
type TraceSink = obs.TraceSink

// panicError marks an attempt that panicked and was recovered; the
// runner counts these separately from ordinary stage errors.
type panicError struct {
	stage string
	val   interface{}
}

// Error implements error (same text the runner historically produced).
func (e *panicError) Error() string { return fmt.Sprintf("stage %s panicked: %v", e.stage, e.val) }

// isPanicErr reports whether err records a recovered stage panic.
func isPanicErr(err error) bool {
	_, ok := err.(*panicError)
	return ok
}

// Runner metric families. Per-stage series carry a stage label built
// from the pipeline's stage names — a closed set, so cardinality stays
// bounded (see the cardinality rules in DESIGN.md).
const (
	mStageTotal   = "sidq_runner_stage_total"
	mStageLatency = "sidq_runner_stage_latency_ns"
	mRetries      = "sidq_runner_retries_total"
	mPanics       = "sidq_runner_panics_total"
	mRollbacks    = "sidq_runner_rollbacks_total"
	mSkips        = "sidq_runner_skips_total"
)

// InitRunnerMetrics pre-registers the runner's unlabeled metric
// families and help text in reg, so an exposition endpoint shows them
// (at zero) before the first pipeline runs. Labeled per-stage series
// appear as stages execute.
func InitRunnerMetrics(reg *obs.Registry) {
	reg.Help(mStageTotal, "Pipeline stage executions by stage and outcome.")
	reg.Help(mStageLatency, "Per-stage wall time across all attempts, in nanoseconds.")
	reg.Help(mRetries, "Stage attempts that failed and were retried.")
	reg.Help(mPanics, "Stage attempts that panicked and were recovered.")
	reg.Help(mRollbacks, "Stages rolled back by the quality-regression guard.")
	reg.Help(mSkips, "Stages skipped after exhausting retries.")
	reg.Counter(mRetries)
	reg.Counter(mPanics)
	reg.Counter(mRollbacks)
	reg.Counter(mSkips)
}

// errText renders err for a trace event ("" for success).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// observeStage records the completed stage into the trace sink and the
// metrics registry. Called once per stage, with the final report.
func (r *Runner) observeStage(rep *StageReport) {
	if r.Trace != nil {
		r.Trace.Record(obs.TraceEvent{
			Name: rep.Stage,
			Kind: obs.KindStage,
			Dur:  rep.Duration,
			N:    rep.Attempts,
			Err:  errText(rep.Err),
		})
	}
	if r.Obs == nil {
		return
	}
	outcome := "ok"
	switch {
	case rep.RolledBack:
		outcome = "rolled_back"
		r.Obs.Counter(mRollbacks).Inc()
	case rep.Skipped:
		outcome = "skipped"
		r.Obs.Counter(mSkips).Inc()
	case rep.Err != nil && isPartial(rep.Err):
		outcome = "degraded"
	case rep.Err != nil:
		outcome = "failed"
	}
	r.Obs.Counter(fmt.Sprintf("%s{stage=%q,outcome=%q}", mStageTotal, rep.Stage, outcome)).Inc()
	r.Obs.Histogram(fmt.Sprintf("%s{stage=%q}", mStageLatency, rep.Stage)).Observe(rep.Duration.Nanoseconds())
}

// obsAttemptFailure records one failed attempt: a panic counter/event
// when the attempt panicked, and a retry counter/event when another
// attempt follows.
func (r *Runner) obsAttemptFailure(stage string, attempt int, err error, willRetry bool) {
	if isPanicErr(err) {
		if r.Trace != nil {
			r.Trace.Record(obs.TraceEvent{Name: stage, Kind: obs.KindPanic, N: attempt, Err: errText(err)})
		}
		if r.Obs != nil {
			r.Obs.Counter(mPanics).Inc()
		}
	}
	if !willRetry {
		return
	}
	if r.Trace != nil {
		r.Trace.Record(obs.TraceEvent{Name: stage, Kind: obs.KindRetry, N: attempt, Err: errText(err)})
	}
	if r.Obs != nil {
		r.Obs.Counter(mRetries).Inc()
	}
}

// obsSkip emits the skip decision (terminal stage failure).
func (r *Runner) obsSkip(stage string, attempts int, err error) {
	if r.Trace != nil {
		r.Trace.Record(obs.TraceEvent{Name: stage, Kind: obs.KindSkip, N: attempts, Err: errText(err)})
	}
}

// obsRollback emits the rollback decision (quality regression).
func (r *Runner) obsRollback(stage string) {
	if r.Trace != nil {
		r.Trace.Record(obs.TraceEvent{Name: stage, Kind: obs.KindRollback})
	}
}
