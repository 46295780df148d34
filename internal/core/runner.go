package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sidq/internal/obs"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// PartialError reports a stage that completed in a degraded way: some
// of its calls failed while the rest were kept. The Runner records it
// in the stage report but does not skip — the stage's surviving work is
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

// FailurePolicy selects what the Runner does when a stage's call fails.
type FailurePolicy int

const (
	// FailFast ends the run at the first call that fails or panics,
	// returning the error with the progress made before it.
	FailFast FailurePolicy = iota
	// SkipStage keeps going: a failing call leaves its trajectory, or
	// the readings, at what the stage was given.
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

// StageReport is the runner's execution record for one stage in one
// round. A stage makes one call per trajectory, and one for the
// readings when there are any.
type StageReport struct {
	Stage string
	Task  Task
	// Err is the failure of a stage whose every call failed, a
	// *PartialError when only some did, the failing call's error under
	// FailFast, and the context's error when the round was cancelled.
	Err      error
	Skipped  bool           // every call failed, so nothing of the stage was kept
	Duration time.Duration  // wall time of the stage's calls; of the round so far when it was cancelled
	Meta     map[string]int // stage counters (e.g. partial-failure accounting)
}

// Runner executes a list of stages resiliently: each trajectory goes
// through every stage in turn on one worker goroutine, a panic becomes
// the failure of its call, and the failure policy decides whether a
// failure ends the run. The zero value stops at the first call that
// fails or panics (FailFast), returning the error instead of dying.
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
// calls.
func DefaultRunner() *Runner { return &Runner{Policy: SkipStage} }

// Sink receives the cleaned trajectories of a run's last round, in
// input order, while the round runs.
type Sink interface {
	// Begin is called once, before the first Put, on the goroutine that
	// started the run, with every stage the run applies.
	Begin(stages []Stage)
	// Put receives one cleaned trajectory on the round's worker
	// goroutine. pts is tr.Points or one of the run's point buffers,
	// valid only until Put returns. Put may call flush, which waits
	// while Flush runs on the goroutine that started the run and
	// returns Flush's error. An error from Put ends the run with it.
	Put(tr *trajectory.Trajectory, pts []trajectory.Point, flush func() error) error
	// Flush runs on the goroutine that started the run: when Put asks,
	// and once after the last Put of a round that succeeded.
	Flush() error
}

// Run executes stages in order over ds and returns the cleaned dataset.
// ds is left bit-identical: by the Stage contract a stage appends into
// the run's point buffers instead of editing points, and the output
// holds one exact-size copy of each trajectory some stage changed,
// sharing the others with ds. Run never panics because of a stage: a
// panic is the failure of its call, subject to the failure policy. The
// error is non-nil under FailFast, or when ctx is cancelled before or
// during the run. Under FailFast the output holds the trajectories
// cleaned before the failing call, the one it failed on at its points
// before that stage, and the rest as they came in; a cancelled run
// returns ds. The reports cover every stage reached. Run does not
// assess quality: a caller that wants the movement measures the input
// and the output.
func (r *Runner) Run(ctx context.Context, ds *Dataset, stages []Stage) (*Dataset, []StageReport, error) {
	c := &collector{trs: make([]*trajectory.Trajectory, 0, len(ds.Trajectories))}
	rs, reports, err := r.run(ctx, ds, stages, c)
	return c.dataset(ds, rs, err), reports, err
}

// collector is the Sink that Run cleans into.
type collector struct{ trs []*trajectory.Trajectory }

func (c *collector) Begin([]Stage) {}

func (c *collector) Flush() error { return nil }

// Put keeps tr when no stage changed it, else one exact-size copy.
func (c *collector) Put(tr *trajectory.Trajectory, pts []trajectory.Point, _ func() error) error {
	if !samePoints(pts, tr.Points) {
		tr = &trajectory.Trajectory{ID: tr.ID, Points: append(make([]trajectory.Point, 0, len(pts)), pts...)}
	}
	c.trs = append(c.trs, tr)
	return nil
}

// dataset is the output of a round run over in into c: in itself when
// the round was cancelled, else what c received followed by what it
// did not (a FailFast run ends early), with the round's readings.
func (c *collector) dataset(in *Dataset, rs []stid.Reading, err error) *Dataset {
	var ce *cancelError
	if errors.As(err, &ce) {
		return in
	}
	out := *in
	out.Trajectories = append(c.trs, in.Trajectories[len(c.trs):]...)
	out.Readings = rs
	return &out
}

// samePoints reports whether a and b are the same slice of points.
func samePoints(a, b []trajectory.Point) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// cancelError ends a run whose context is done: before its first call,
// or during the stage of the call in progress.
type cancelError struct {
	stage  string
	before bool
	err    error
}

func (e *cancelError) Error() string {
	if e.before {
		return fmt.Sprintf("pipeline cancelled before stage %s: %v", e.stage, e.err)
	}
	return fmt.Sprintf("pipeline cancelled during stage %s: %v", e.stage, e.err)
}

func (e *cancelError) Unwrap() error { return e.err }

// errRoundCancelled is how the worker tells the run it saw ctx done.
var errRoundCancelled = errors.New("round cancelled")

// run is the runner's one loop. A worker goroutine takes the readings
// through every stage, then each trajectory through every stage in
// turn: each stage appends into one of two point buffers, the two
// taking turns, and sink gets the trajectory after its last stage. The
// calling goroutine runs sink's Flush when the worker asks, and
// abandons the worker when ctx is done, so a stage that ignores ctx
// cannot hold the run past its deadline; an abandoned worker's scratch
// is left to the GC. run returns the round's readings and reports.
func (r *Runner) run(ctx context.Context, ds *Dataset, stages []Stage, sink Sink) ([]stid.Reading, []StageReport, error) {
	switch {
	case ctx == nil:
		ctx = context.Background()
	case len(stages) == 0:
		// No stage, nothing to abandon: the round runs to its end.
		ctx = context.WithoutCancel(ctx)
	case ctx.Err() != nil:
		return ds.Readings, nil, &cancelError{stage: stages[0].Name(), before: true, err: ctx.Err()}
	}
	start := time.Now()
	w := &worker{
		ctx: ctx, policy: r.Policy, ds: ds, stages: stages, sink: sink,
		passes:   make([]pass, len(stages)),
		flushReq: make(chan struct{}),
		flushed:  make(chan error, 1),
		done:     make(chan struct{}),
	}
	w.flushFn = w.flush
	w.pos.Store(-1)
	for k := range w.passes {
		w.passes[k].run = StageRun{Dataset: ds, Budget: trajectory.MaxResamplePoints}
	}
	go w.work()
	for {
		select {
		case <-w.flushReq:
			// Past the deadline nothing more is written: the worker gets
			// the context's error, and the next turn abandons it.
			err := ctx.Err()
			if err == nil {
				err = sink.Flush()
			}
			w.flushed <- err
		case <-w.done:
			w.scr.release()
			if w.fatal == errRoundCancelled {
				reports, err := r.cancelled(w, ctx.Err(), time.Since(start))
				return ds.Readings, reports, err
			}
			reports := r.reports(w)
			if w.fatal == nil {
				w.fatal = sink.Flush()
			}
			return w.rs, reports, w.fatal
		case <-ctx.Done():
			reports, err := r.cancelled(w, ctx.Err(), time.Since(start))
			return ds.Readings, reports, err
		}
	}
}

// worker is one round's state. The worker goroutine owns all of it
// until it closes done, except pos, which the run reads when it
// abandons the worker.
type worker struct {
	ctx    context.Context
	policy FailurePolicy
	ds     *Dataset
	stages []Stage
	sink   Sink
	passes []pass
	view   trajectory.Trajectory // the trajectory as the next stage sees it
	scr    *roundScratch
	// pos is the call in progress, -1 before the first: the readings'
	// calls come first, then len(stages) for each trajectory.
	pos     atomic.Int64
	rs      []stid.Reading
	fatal   error // what ended the round early
	flushFn func() error

	flushReq chan struct{}
	flushed  chan error
	done     chan struct{}
}

// pass is one stage's share of a round: the StageRun its calls share
// and their tally.
type pass struct {
	run                   StageRun
	calls, failed, panics int
	last                  error
	dur                   time.Duration
}

// roundScratch is what one round's worker fills and the next round
// reuses: the two point buffers the stages append into, and the
// built-in stages' kernel scratch, which every stage of the round
// reaches through its StageRun. The worker takes one when its first
// trajectory starts; the run gives it back once the worker is done.
// An abandoned worker's scratch is left to the GC, as it may still
// write into it.
type roundScratch struct {
	pts         [2][]trajectory.Point
	speed, stat []bool    // OutlierRemovalStage's flags
	floats      []float64 // outlier.Statistical's windows
}

var roundScratches = sync.Pool{New: func() any { return new(roundScratch) }}

// maxPooledPoints caps the scratch that goes back to the pool: one
// grown past it by a long trajectory is left to the GC.
const maxPooledPoints = 1 << 16

func (s *roundScratch) release() {
	if s == nil || cap(s.pts[0]) > maxPooledPoints || cap(s.pts[1]) > maxPooledPoints || cap(s.speed) > maxPooledPoints {
		return
	}
	roundScratches.Put(s)
}

func (w *worker) work() {
	defer close(w.done)
	call := int64(0)
	w.rs = w.ds.Readings
	if len(w.rs) > 0 {
		for k, st := range w.stages {
			w.pos.Store(call)
			call++
			start := time.Now()
			out, err := cleanReadings(w.ctx, st, &w.passes[k].run, w.rs)
			w.passes[k].dur += time.Since(start)
			if w.account(k, err) {
				return
			}
			if err == nil {
				w.rs = out
			}
		}
	}
	w.scr = roundScratches.Get().(*roundScratch)
	for k := range w.passes {
		w.passes[k].run.scratch = w.scr
	}
	for _, tr := range w.ds.Trajectories {
		if w.ctx.Err() != nil {
			w.fatal = errRoundCancelled
			return
		}
		pts, next := tr.Points, 0
		w.view.ID = tr.ID
		prev := time.Now()
		for k, st := range w.stages {
			w.pos.Store(call)
			call++
			w.view.Points = pts
			out, err := cleanPoints(w.ctx, st, &w.passes[k].run, &w.view, w.scr.pts[next][:0])
			now := time.Now()
			w.passes[k].dur += now.Sub(prev)
			prev = now
			if w.account(k, err) {
				if w.fatal != errRoundCancelled {
					_ = w.sink.Put(tr, pts, w.flushFn) // FailFast: the progress up to the failing call
				}
				return
			}
			if err == nil && !samePoints(out, pts) {
				w.scr.pts[next], pts, next = out, out, 1-next
			}
		}
		if err := w.sink.Put(tr, pts, w.flushFn); err != nil {
			w.fatal = err
			if w.ctx.Err() != nil {
				w.fatal = errRoundCancelled
			}
			return
		}
	}
}

// account tallies one call of stage k and reports whether it ends the
// round: ctx is done, or the call failed under FailFast.
func (w *worker) account(k int, err error) bool {
	p := &w.passes[k]
	p.calls++
	if err == nil {
		return false
	}
	if w.ctx.Err() != nil {
		w.fatal = errRoundCancelled
		return true
	}
	p.failed++
	p.last = err
	if _, ok := err.(*panicError); ok {
		p.panics++
	}
	if w.policy == SkipStage {
		return false
	}
	w.fatal = fmt.Errorf("stage %s failed: %w", w.stages[k].Name(), err)
	return true
}

// flush hands the sink's output to the run's goroutine and waits for
// Flush to write it.
func (w *worker) flush() error {
	select {
	case w.flushReq <- struct{}{}:
		return <-w.flushed
	case <-w.ctx.Done():
		return w.ctx.Err()
	}
}

// cleanPoints is one CleanPoints call, a panic turned into its error.
func cleanPoints(ctx context.Context, st Stage, run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) (out []trajectory.Point, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{stage: st.Name(), val: p}
		}
	}()
	return st.CleanPoints(ctx, run, tr, dst)
}

// cleanReadings is one CleanReadings call, a panic turned into its
// error.
func cleanReadings(ctx context.Context, st Stage, run *StageRun, rs []stid.Reading) (out []stid.Reading, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{stage: st.Name(), val: p}
		}
	}()
	return st.CleanReadings(ctx, run, rs)
}

// reports settles the round's stage reports from the worker's tallies
// once it is done: every stage when the round ran to its end, else the
// stages it reached.
func (r *Runner) reports(w *worker) []StageReport {
	reports := make([]StageReport, 0, len(w.stages))
	for k, st := range w.stages {
		p := &w.passes[k]
		if w.fatal != nil && p.calls == 0 {
			break
		}
		rep := StageReport{Stage: st.Name(), Task: st.Task(), Duration: p.dur}
		outcome := "ok"
		switch {
		case p.failed == 0:
		case r.Policy != SkipStage:
			outcome, rep.Err = "failed", p.last
		case p.failed == p.calls:
			outcome, rep.Err, rep.Skipped = "skipped", p.last, true
		default:
			outcome = "degraded"
			rep.Err = &PartialError{Stage: rep.Stage, Failed: p.failed, Total: p.calls, Last: p.last}
			rep.Meta = map[string]int{"failed": p.failed, "total": p.calls}
		}
		r.observeStage(&rep, outcome, p.panics)
		reports = append(reports, rep)
	}
	return reports
}

// cancelled settles a round that ctx ended, from the position of the
// call in progress alone: the worker may still be running. Every stage
// the round reached is reported cancelled, with the round's wall time.
func (r *Runner) cancelled(w *worker, err error, elapsed time.Duration) ([]StageReport, error) {
	n, pos := int64(len(w.stages)), w.pos.Load()
	if pos < 0 {
		return nil, &cancelError{stage: w.stages[0].Name(), before: true, err: err}
	}
	reports := make([]StageReport, min(pos+1, n))
	for k := range reports {
		st := w.stages[k]
		reports[k] = StageReport{Stage: st.Name(), Task: st.Task(), Err: err, Duration: elapsed}
		r.observeStage(&reports[k], "cancelled", 0)
	}
	return reports, &cancelError{stage: w.stages[pos%n].Name(), err: err}
}
