package core

// Observability wiring for the Runner. Everything here is nil-guarded:
// a runner with no Obs registry and no Trace sink pays only those nil
// checks, and they sit at stage granularity (a handful per pipeline
// run), never inside per-point loops — the zero-overhead contract
// documented in DESIGN.md and guarded by BenchmarkRunnerObsOverhead.

import (
	"fmt"
	"sync"

	"sidq/internal/obs"
)

// TraceSink receives structured runner execution events. It is the
// obs.TraceSink contract re-exported so chaos scenarios and services
// can depend on core alone.
type TraceSink = obs.TraceSink

// panicError marks a call that panicked and was recovered; the runner
// counts these separately from ordinary stage errors.
type panicError struct {
	stage string
	val   interface{}
}

// Error implements error (same text the runner historically produced).
func (e *panicError) Error() string { return fmt.Sprintf("stage %s panicked: %v", e.stage, e.val) }

// Runner metric families. Per-stage series carry a stage label built
// from the pipeline's stage names — a closed set, so cardinality stays
// bounded (see the cardinality rules in DESIGN.md).
const (
	mStageTotal   = "sidq_runner_stage_total"
	mStageLatency = "sidq_runner_stage_latency_ns"
	mPanics       = "sidq_runner_panics_total"
	mSkips        = "sidq_runner_skips_total"
)

// InitRunnerMetrics pre-registers the runner's unlabeled metric
// families and help text in reg, so an exposition endpoint shows them
// (at zero) before the first pipeline runs. Labeled per-stage series
// appear as stages execute.
func InitRunnerMetrics(reg *obs.Registry) {
	reg.Help(mStageTotal, "Pipeline stage executions by stage and outcome.")
	reg.Help(mStageLatency, "Per-stage wall time of the stage's calls in a round, excluding quality assessment, in nanoseconds.")
	reg.Help(mPanics, "Stage calls that panicked and were recovered.")
	reg.Help(mSkips, "Stages every call of which failed in a round, so none of their work was kept.")
	reg.Counter(mPanics)
	reg.Counter(mSkips)
}

// observeStage records the completed stage into the trace sink and the
// metrics registry, with the outcome the runner settled on: ok,
// degraded, skipped, failed or cancelled, and the number of its calls
// that panicked. Called once per stage per round, with the final
// report.
func (r *Runner) observeStage(rep *StageReport, outcome string, panics int) {
	if r.Trace != nil {
		text := ""
		if rep.Err != nil {
			text = rep.Err.Error()
		}
		if panics > 0 {
			r.Trace.Record(obs.TraceEvent{Name: rep.Stage, Kind: obs.KindPanic, Err: text})
		}
		if rep.Skipped {
			r.Trace.Record(obs.TraceEvent{Name: rep.Stage, Kind: obs.KindSkip, Err: text})
		}
		r.Trace.Record(obs.TraceEvent{Name: rep.Stage, Kind: obs.KindStage, Dur: rep.Duration, Err: text})
	}
	if r.Obs == nil {
		return
	}
	if panics > 0 {
		r.Obs.Counter(mPanics).Add(uint64(panics))
	}
	if rep.Skipped {
		r.Obs.Counter(mSkips).Inc()
	}
	names := seriesFor(rep.Stage, outcome)
	r.Obs.Counter(names.total).Inc()
	r.Obs.Histogram(names.latency).Observe(rep.Duration.Nanoseconds())
}

// stageSeries are the labelled series names one stage outcome updates.
type stageSeries struct{ total, latency string }

// stageSeriesNames memoizes stageSeries by stage and outcome. Both are
// closed sets, so each pair is formatted once per process rather than
// once per stage per round.
var stageSeriesNames = struct {
	sync.Mutex
	m map[[2]string]stageSeries
}{m: map[[2]string]stageSeries{}}

func seriesFor(stage, outcome string) stageSeries {
	key := [2]string{stage, outcome}
	stageSeriesNames.Lock()
	defer stageSeriesNames.Unlock()
	names, ok := stageSeriesNames.m[key]
	if !ok {
		names = stageSeries{
			total:   fmt.Sprintf("%s{stage=%q,outcome=%q}", mStageTotal, stage, outcome),
			latency: fmt.Sprintf("%s{stage=%q}", mStageLatency, stage),
		}
		stageSeriesNames.m[key] = names
	}
	return names
}
