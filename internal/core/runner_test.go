package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sidq/internal/obs"
	"sidq/internal/quality"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// scriptedStage is a Stage driven by a test callback, called once a
// call with the run's dataset; it leaves every trajectory and the
// readings as they are.
type scriptedStage struct {
	name  string
	calls *int
	fn    func(ctx context.Context, ds *Dataset) error
}

func (s scriptedStage) Name() string { return s.name }
func (s scriptedStage) Task() Task   { return FaultCorrection }
func (s scriptedStage) CleanPoints(ctx context.Context, run *StageRun, tr *trajectory.Trajectory, _ []trajectory.Point) ([]trajectory.Point, error) {
	return tr.Points, s.call(ctx, run)
}
func (s scriptedStage) CleanReadings(ctx context.Context, run *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, s.call(ctx, run)
}
func (s scriptedStage) call(ctx context.Context, run *StageRun) error {
	if s.calls != nil {
		*s.calls++
	}
	return s.fn(ctx, run.Dataset)
}

// legacyPanicStage ignores its context and panics — the failure mode
// that used to kill the whole run.
type legacyPanicStage struct{}

func (legacyPanicStage) Name() string { return "legacy-panic" }
func (legacyPanicStage) Task() Task   { return FaultCorrection }
func (legacyPanicStage) CleanPoints(context.Context, *StageRun, *trajectory.Trajectory, []trajectory.Point) ([]trajectory.Point, error) {
	panic("boom")
}
func (legacyPanicStage) CleanReadings(context.Context, *StageRun, []stid.Reading) ([]stid.Reading, error) {
	panic("boom")
}

// TestRunnerRetriesAreBounded: the bound is one. A stage that always
// fails is attempted exactly once a call — once for each trajectory and
// once for the readings — and skipped.
func TestRunnerRetriesAreBounded(t *testing.T) {
	ds := dirtyDataset(12)
	calls := 0
	st := scriptedStage{name: "always-fails", calls: &calls, fn: func(ctx context.Context, ds *Dataset) error {
		return errors.New("permanent")
	}}
	_, reports, err := (&Runner{Policy: SkipStage}).Run(context.Background(), ds, []Stage{st})
	if err != nil {
		t.Fatalf("skip policy surfaced error: %v", err)
	}
	if want := len(ds.Trajectories) + 1; calls != want {
		t.Fatalf("calls = %d, want exactly one attempt for each of %d calls", calls, want)
	}
	if !reports[0].Skipped || reports[0].Err == nil {
		t.Fatalf("report = %+v", reports[0])
	}
}

func TestRunnerRecoversPanics(t *testing.T) {
	ds := dirtyDataset(13)
	before := ds.Assess()

	// Legacy stage panic under SkipStage: pipeline survives, work kept
	// from the healthy stages.
	out, reports, _ := DefaultRunner().Run(context.Background(), ds, []Stage{legacyPanicStage{}, DeduplicateStage{}})
	if out == nil || len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if !reports[0].Skipped || reports[0].Err == nil || !strings.Contains(reports[0].Err.Error(), "panicked") {
		t.Fatalf("panic report = %+v", reports[0])
	}
	if reports[1].Skipped {
		t.Fatal("healthy stage skipped")
	}
	if out.Assess()[quality.Redundancy] >= before[quality.Redundancy] {
		t.Fatal("dedup after panic did not run")
	}

	// The same panic under FailFast is the run's error, not a crash.
	_, _, err := (&Runner{Policy: FailFast}).Run(context.Background(), ds, []Stage{legacyPanicStage{}})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("fail-fast panic error = %v", err)
	}
}

// TestRunnerFailFastReturnsProgress: FailFast ends the run at the first
// failing call, and the output holds the progress made before it — here
// the first trajectory, deduplicated before its second stage failed.
// Without readings the first call to fail is that trajectory's.
func TestRunnerFailFastReturnsProgress(t *testing.T) {
	ds := dirtyDataset(14)
	ds.Readings = nil
	st := scriptedStage{name: "fatal", fn: func(ctx context.Context, ds *Dataset) error {
		return errors.New("db down")
	}}
	r := &Runner{Policy: FailFast}
	out, reports, err := r.Run(context.Background(), ds, []Stage{DeduplicateStage{}, st, SmoothingStage{}})
	if err == nil || !strings.Contains(err.Error(), "db down") {
		t.Fatalf("err = %v", err)
	}
	// Progress up to the failure is returned: dedup ran, smoothing never.
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if out.Trajectories[0].Len() >= ds.Trajectories[0].Len() || out.Assess()[quality.Redundancy] >= ds.Assess()[quality.Redundancy] {
		t.Fatal("pre-failure stage work lost")
	}
	for i := 1; i < len(ds.Trajectories); i++ {
		if out.Trajectories[i] != ds.Trajectories[i] {
			t.Fatalf("trajectory %d after the failure was changed", i)
		}
	}
}

// TestRunnerStageDeadlineCancelsRunaway: the deadline is the run's ctx
// (a request's, via the server's timeout middleware). A stage that
// ignores it is abandoned when it passes, and the run ends with the
// deadline error whatever the policy.
func TestRunnerStageDeadlineCancelsRunaway(t *testing.T) {
	ds := dirtyDataset(16)
	release := make(chan struct{})
	defer close(release)
	st := scriptedStage{name: "runaway", fn: func(context.Context, *Dataset) error {
		<-release // deaf to ctx
		return nil
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, reports, err := (&Runner{Policy: SkipStage}).Run(ctx, ds, []Stage{st, DeduplicateStage{}})
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline did not abandon the stage")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "during stage runaway") {
		t.Fatalf("err = %v, want the deadline, during stage runaway", err)
	}
	if len(reports) != 1 || reports[0].Skipped || !errors.Is(reports[0].Err, context.DeadlineExceeded) {
		t.Fatalf("reports = %+v, want the one abandoned stage, not skipped", reports)
	}
}

// TestRunCancelledMidStageIsAnError: a call that ended because the
// run's ctx is done is a cancellation, not a stage failure — the run
// returns the ctx error, the stage is not marked or counted skipped,
// and the dataset is the round's input: a cancelled round keeps none of
// its work. (The readings' calls come first, so dying cancels in its
// first call, after the one stage before it.)
func TestRunCancelledMidStageIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stages func(cancelling Stage) []Stage
	}{
		{"last stage", func(c Stage) []Stage { return []Stage{DeduplicateStage{}, c} }},
		{"middle stage", func(c Stage) []Stage { return []Stage{DeduplicateStage{}, c, SmoothingStage{}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := dirtyDataset(21)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dying := scriptedStage{name: "dying", fn: func(ctx context.Context, _ *Dataset) error {
				cancel()
				return ctx.Err()
			}}
			reg := obs.NewRegistry()
			sink := &obs.MemSink{}
			r := &Runner{Policy: SkipStage, Obs: reg, Trace: sink}
			out, reports, err := r.Run(ctx, ds, tc.stages(dying))
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "cancelled during stage dying") {
				t.Fatalf("err = %v, want cancelled during stage dying", err)
			}
			if len(reports) != 2 {
				t.Fatalf("%d reports, want 2: the run ends at the cancelled stage", len(reports))
			}
			if rep := reports[1]; rep.Skipped || !errors.Is(rep.Err, context.Canceled) {
				t.Fatalf("report = %+v, want Err set and not Skipped", rep)
			}
			if got := reg.Counter(mSkips).Value(); got != 0 {
				t.Fatalf("skips_total = %d, want 0", got)
			}
			if got := sink.Count(obs.KindSkip); got != 0 {
				t.Fatalf("%d skip trace events, want 0", got)
			}
			if got := reg.Counter(`sidq_runner_stage_total{stage="dying",outcome="cancelled"}`).Value(); got != 1 {
				t.Fatalf("stage_total{cancelled} = %d, want 1", got)
			}
			if got := reg.Counter(`sidq_runner_stage_total{stage="dying",outcome="skipped"}`).Value(); got != 0 {
				t.Fatalf("stage_total{skipped} = %d, want 0", got)
			}
			if out != ds {
				t.Fatal("a cancelled round returned work; want its input")
			}
		})
	}
}

func TestRunnerParentCancellation(t *testing.T) {
	ds := dirtyDataset(17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := DefaultRunner().Run(ctx, ds, []Stage{DeduplicateStage{}})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run err = %v", err)
	}
}

// failingDedup deduplicates every trajectory but the one named fail,
// whose call fails.
type failingDedup struct{ fail string }

func (failingDedup) Name() string { return "partial" }
func (failingDedup) Task() Task   { return DataIntegration }
func (s failingDedup) CleanPoints(ctx context.Context, run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	if tr.ID == s.fail {
		return dst, errors.New("no fix")
	}
	return DeduplicateStage{}.CleanPoints(ctx, run, tr, dst)
}
func (failingDedup) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}

// TestRunnerPartialErrorKeepsWork: a stage some of whose calls fail is
// degraded, not skipped. The failing trajectory keeps the points the
// stage was given, the others keep the stage's work, and the report
// counts the failed calls among all of them.
func TestRunnerPartialErrorKeepsWork(t *testing.T) {
	ds := dirtyDataset(18)
	st := failingDedup{fail: ds.Trajectories[1].ID}
	out, reports, err := DefaultRunner().Run(context.Background(), ds, []Stage{st})
	if err != nil {
		t.Fatalf("partial error escalated to run failure: %v", err)
	}
	rep := reports[0]
	var pe *PartialError
	if !errors.As(rep.Err, &pe) || rep.Skipped {
		t.Fatalf("report = %+v", rep)
	}
	if total := len(ds.Trajectories) + 1; rep.Meta["failed"] != 1 || rep.Meta["total"] != total || pe.Failed != 1 || pe.Total != total {
		t.Fatalf("meta = %v, err %v; want 1 of %d calls failed", rep.Meta, pe, total)
	}
	if out.Trajectories[1] != ds.Trajectories[1] {
		t.Fatal("the failing call's trajectory was replaced")
	}
	if out.Assess()[quality.Redundancy] >= ds.Assess()[quality.Redundancy] {
		t.Fatal("partial stage's work discarded")
	}
}

func TestRouteRecoverSurfacesMapMatchFailures(t *testing.T) {
	// A graph-less snapper cannot be built here; instead exercise the
	// public contract: a nil graph is a clean no-op that keeps every
	// trajectory as it is.
	ds := dirtyDataset(19)
	out, reports, err := DefaultRunner().Run(context.Background(), ds, []Stage{RouteRecoverStage{}})
	if err != nil || reports[0].Err != nil {
		t.Fatalf("nil graph should no-op, got %v, %v", err, reports[0].Err)
	}
	for i, tr := range ds.Trajectories {
		if out.Trajectories[i] != tr {
			t.Fatalf("nil graph replaced trajectory %d", i)
		}
	}
}

func TestFailurePolicyString(t *testing.T) {
	for p, want := range map[FailurePolicy]string{
		FailFast: "fail-fast", SkipStage: "skip-stage",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
	if !strings.Contains(FailurePolicy(9).String(), "policy(") {
		t.Fatal("unknown policy")
	}
}
