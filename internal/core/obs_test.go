package core

import (
	"context"
	"strings"
	"testing"

	"sidq/internal/obs"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// noopStage is a do-nothing stage, for observing the runner's
// bookkeeping without any stage-side noise.
type noopStage struct{}

func (noopStage) Name() string { return "noop" }
func (noopStage) Task() Task   { return FaultCorrection }
func (noopStage) CleanPoints(_ context.Context, _ *StageRun, tr *trajectory.Trajectory, _ []trajectory.Point) ([]trajectory.Point, error) {
	return tr.Points, nil
}
func (noopStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}

func TestRunnerObsStageMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &obs.MemSink{}
	r := &Runner{Policy: SkipStage, Obs: reg, Trace: sink}
	_, reports, err := r.Run(context.Background(), dirtyDataset(1), []Stage{noopStage{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Duration <= 0 {
		t.Fatalf("reports = %+v, want one report with Duration > 0", reports)
	}
	if got := sink.Count(obs.KindStage); got != 1 {
		t.Fatalf("stage trace events = %d, want 1", got)
	}
	if got := reg.Counter(`sidq_runner_stage_total{stage="noop",outcome="ok"}`).Value(); got != 1 {
		t.Fatalf("stage_total{ok} = %d, want 1", got)
	}
	if got := reg.Histogram(`sidq_runner_stage_latency_ns{stage="noop"}`).Snapshot().Count(); got != 1 {
		t.Fatalf("stage latency observations = %d, want 1", got)
	}
}

func TestRunnerObsPanicAndSkip(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &obs.MemSink{}
	r := &Runner{Policy: SkipStage, Obs: reg, Trace: sink}
	ds := dirtyDataset(1)
	_, reports, err := r.Run(context.Background(), ds, []Stage{legacyPanicStage{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Skipped {
		t.Fatal("stage not skipped")
	}
	// One panic a call: a trajectory each, and the readings.
	if got, want := reg.Counter("sidq_runner_panics_total").Value(), uint64(len(ds.Trajectories)+1); got != want {
		t.Fatalf("panics_total = %d, want %d", got, want)
	}
	if got := reg.Counter("sidq_runner_skips_total").Value(); got != 1 {
		t.Fatalf("skips_total = %d, want 1", got)
	}
	if got := sink.Count(obs.KindPanic); got != 1 {
		t.Fatalf("panic trace events = %d, want 1", got)
	}
	if got := sink.CountName(obs.KindSkip, "legacy-panic"); got != 1 {
		t.Fatalf("skip trace events = %d, want 1", got)
	}
	if got := reg.Counter(`sidq_runner_stage_total{stage="legacy-panic",outcome="skipped"}`).Value(); got != 1 {
		t.Fatalf("stage_total{skipped} = %d, want 1", got)
	}
}

func TestInitRunnerMetricsPreregisters(t *testing.T) {
	reg := obs.NewRegistry()
	InitRunnerMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{mPanics, mSkips} {
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Errorf("exposition missing family %s:\n%s", fam, out)
		}
	}
}

// BenchmarkRunnerObsOverhead is the zero-overhead guard: the "off"
// case (no registry, no sink — the production default) must stay
// within noise of the pre-change runner, and is the number tracked by
// the committed BENCH_*.json baselines. The "attached" case bounds
// what full instrumentation costs.
func BenchmarkRunnerObsOverhead(b *testing.B) {
	ds := dirtyDataset(7)
	stages := []Stage{noopStage{}, noopStage{}, noopStage{}}
	run := func(b *testing.B, r *Runner) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Run(context.Background(), ds, stages); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, &Runner{Policy: SkipStage})
	})
	b.Run("attached", func(b *testing.B) {
		run(b, &Runner{Policy: SkipStage, Obs: obs.NewRegistry(), Trace: obs.FuncSink(func(obs.TraceEvent) {})})
	})
}
