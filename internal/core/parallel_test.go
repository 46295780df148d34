package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// wideDataset is dirtyDataset scaled out to many trajectories so shard
// boundaries land in interesting places.
func wideDataset(seed int64, n int) *Dataset {
	ds := dirtyDataset(seed)
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	for i := 3; i < n; i++ {
		truth := simulate.RandomWalk(fmt.Sprintf("w%d", i), region, 200, 2, 1, seed+int64(100+i))
		ds.Truth[truth.ID] = truth
		dirty := simulate.AddGaussianNoise(truth, 6, seed+int64(200+i))
		dirty, _ = simulate.InjectOutliers(dirty, 0.03, 120, seed+int64(300+i))
		ds.Trajectories = append(ds.Trajectories, dirty)
	}
	return ds
}

// requireSameData asserts the data payloads of two datasets are
// deeply (bit-for-bit) identical.
func requireSameData(t *testing.T, label string, a, b *Dataset) {
	t.Helper()
	if !reflect.DeepEqual(a.Trajectories, b.Trajectories) {
		t.Fatalf("%s: trajectories differ", label)
	}
	if !reflect.DeepEqual(a.Readings, b.Readings) {
		t.Fatalf("%s: readings differ", label)
	}
}

// TestParallelRunnerByteIdentical is the tentpole guarantee: for every
// pipeline shape the experiments use, the parallel runner's output is
// byte-identical to the serial runner's at 1, 4, and NumCPU workers.
func TestParallelRunnerByteIdentical(t *testing.T) {
	full := []Stage{
		DeduplicateStage{},
		OutlierRemovalStage{},
		SmoothingStage{},
		ImputeStage{},
	}
	pipelines := map[string][]Stage{
		"full":          full,
		"no-dedup":      full[1:],
		"reversed":      {full[3], full[2], full[1], full[0]},
		"repairs":       {PredictionRepairStage{}, TimestampRepairStage{MinGap: 0.1, MaxGap: 10}},
		"readings-side": {ThematicRepairStage{}, SmoothReadingsStage{}},
		"mixed":         {DeduplicateStage{}, ThematicRepairStage{}, SmoothingStage{}, SmoothReadingsStage{}},
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for name, stages := range pipelines {
		serialOut, serialReports, err := NewPipeline(stages...).RunContext(
			context.Background(), &Runner{Policy: RollbackStage}, wideDataset(7, 9))
		if err != nil {
			t.Fatalf("%s: serial run failed: %v", name, err)
		}
		for _, w := range workerCounts {
			r := &Runner{Policy: RollbackStage, Workers: w}
			parOut, parReports, err := NewPipeline(stages...).RunContext(
				context.Background(), r, wideDataset(7, 9))
			if err != nil {
				t.Fatalf("%s/workers=%d: run failed: %v", name, w, err)
			}
			requireSameData(t, fmt.Sprintf("%s/workers=%d", name, w), serialOut, parOut)
			if len(parReports) != len(serialReports) {
				t.Fatalf("%s/workers=%d: %d reports vs %d", name, w, len(parReports), len(serialReports))
			}
			for i := range serialReports {
				sr, pr := serialReports[i], parReports[i]
				if !reflect.DeepEqual(sr.Before, pr.Before) || !reflect.DeepEqual(sr.After, pr.After) {
					t.Fatalf("%s/workers=%d stage %s: assessments diverge", name, w, sr.Stage)
				}
				if sr.Skipped != pr.Skipped || sr.RolledBack != pr.RolledBack {
					t.Fatalf("%s/workers=%d stage %s: outcome diverges (skip %v/%v rollback %v/%v)",
						name, w, sr.Stage, sr.Skipped, pr.Skipped, sr.RolledBack, pr.RolledBack)
				}
			}
		}
	}
}

func TestAssessNMatchesAssess(t *testing.T) {
	ds := wideDataset(3, 11)
	want := ds.Assess()
	for _, w := range []int{1, 2, 3, 8, runtime.NumCPU()} {
		if got := ds.AssessN(w); !reflect.DeepEqual(want, got) {
			t.Fatalf("AssessN(%d) diverges from Assess()", w)
		}
	}
}

func TestShardDataset(t *testing.T) {
	ds := wideDataset(5, 10)
	for _, k := range []int{2, 3, 4, 7, 10, 25} {
		shards := shardDataset(ds, k)
		wantShards := k
		if wantShards > len(ds.Trajectories) {
			wantShards = len(ds.Trajectories)
		}
		if len(shards) != wantShards {
			t.Fatalf("k=%d: %d shards", k, len(shards))
		}
		var ids []string
		for i, s := range shards {
			if i == 0 && len(s.Readings) != len(ds.Readings) {
				t.Fatalf("k=%d: shard 0 lost readings", k)
			}
			if i > 0 && s.Readings != nil {
				t.Fatalf("k=%d: shard %d carries readings", k, i)
			}
			if s.Region != ds.Region || s.MaxSpeed != ds.MaxSpeed {
				t.Fatalf("k=%d: shard %d lost assessment context", k, i)
			}
			for _, tr := range s.Trajectories {
				ids = append(ids, tr.ID)
			}
		}
		if len(ids) != len(ds.Trajectories) {
			t.Fatalf("k=%d: %d trajectories across shards, want %d", k, len(ids), len(ds.Trajectories))
		}
		for i, tr := range ds.Trajectories {
			if ids[i] != tr.ID {
				t.Fatalf("k=%d: order not preserved at %d: %s != %s", k, i, ids[i], tr.ID)
			}
		}
		// Balance: sizes differ by at most one.
		min, max := len(ds.Trajectories), 0
		for _, s := range shards {
			if len(s.Trajectories) < min {
				min = len(s.Trajectories)
			}
			if len(s.Trajectories) > max {
				max = len(s.Trajectories)
			}
		}
		if max-min > 1 {
			t.Fatalf("k=%d: unbalanced shards (%d..%d)", k, min, max)
		}
	}
}

// partialShardStage fails trajectories whose ID carries a marker and
// replaces the rest, reporting a PartialError — the shape the merged
// partial accounting must reproduce exactly.
type partialShardStage struct{}

func (partialShardStage) Name() string        { return "partial-shard" }
func (partialShardStage) Task() Task          { return FaultCorrection }
func (partialShardStage) Traits() StageTraits { return dataParallel }
func (s partialShardStage) Apply(ctx context.Context, ds *Dataset) error {
	failed := 0
	for i, tr := range ds.Trajectories {
		if len(tr.ID) > 0 && tr.ID[0] == 'x' {
			failed++
			continue
		}
		out := tr.Clone()
		for j := range out.Points {
			out.Points[j].Pos.X += 1
		}
		ds.Trajectories[i] = out
	}
	if failed > 0 {
		return &PartialError{Stage: s.Name(), Failed: failed, Total: len(ds.Trajectories), Last: errors.New("marked bad")}
	}
	return nil
}

func TestParallelRunnerMergesPartialErrors(t *testing.T) {
	ds := wideDataset(9, 8)
	// Mark two trajectories in different prospective shards as failing.
	ds.Trajectories[1] = &trajectory.Trajectory{ID: "x1", Points: ds.Trajectories[1].Points}
	ds.Trajectories[6] = &trajectory.Trajectory{ID: "x6", Points: ds.Trajectories[6].Points}

	p := NewPipeline(partialShardStage{})
	serialOut, serialReports, err := p.RunContext(context.Background(), &Runner{Policy: SkipStage}, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		parOut, parReports, err := p.RunContext(context.Background(), &Runner{Policy: SkipStage, Workers: w}, ds)
		if err != nil {
			t.Fatal(err)
		}
		requireSameData(t, fmt.Sprintf("workers=%d", w), serialOut, parOut)
		sr, pr := serialReports[0], parReports[0]
		if !isPartial(pr.Err) {
			t.Fatalf("workers=%d: partial error lost: %v", w, pr.Err)
		}
		if !reflect.DeepEqual(sr.Meta, pr.Meta) {
			t.Fatalf("workers=%d: partial accounting %v, want %v", w, pr.Meta, sr.Meta)
		}
	}
}

// alwaysFailStage is shardable but always errors.
type alwaysFailStage struct{}

func (alwaysFailStage) Name() string        { return "always-fail" }
func (alwaysFailStage) Task() Task          { return FaultCorrection }
func (alwaysFailStage) Traits() StageTraits { return dataParallel }
func (alwaysFailStage) Apply(ctx context.Context, ds *Dataset) error {
	return errors.New("nope")
}

func TestParallelRunnerSkipKeepsInputAndBoundsRetries(t *testing.T) {
	ds := wideDataset(11, 6)
	r := &Runner{
		Policy:  SkipStage,
		Workers: 4,
		Retry:   RetryPolicy{MaxAttempts: 3},
		Sleep:   func(time.Duration) {},
	}
	out, reports, err := NewPipeline(alwaysFailStage{}).RunContext(context.Background(), r, ds)
	if err != nil {
		t.Fatalf("skip policy must not surface the error: %v", err)
	}
	if !reports[0].Skipped {
		t.Fatal("stage not skipped")
	}
	if reports[0].Attempts > 3 {
		t.Fatalf("retries unbounded: %d", reports[0].Attempts)
	}
	requireSameData(t, "skipped stage", ds, out)
}

// scatterStage corrupts trajectories (replace-only) so the rollback
// guard must fire in the parallel path too.
type scatterStage struct{}

func (scatterStage) Name() string        { return "scatter" }
func (scatterStage) Task() Task          { return FaultCorrection }
func (scatterStage) Traits() StageTraits { return dataParallel }
func (s scatterStage) Apply(ctx context.Context, ds *Dataset) error {
	for i, tr := range ds.Trajectories {
		out := tr.Clone()
		for j := range out.Points {
			out.Points[j].Pos.X += float64(j%17) * 400
			out.Points[j].Pos.Y -= float64(j%13) * 400
		}
		ds.Trajectories[i] = out
	}
	return nil
}

func TestParallelRunnerRollbackGuard(t *testing.T) {
	ds := wideDataset(13, 6)
	r := &Runner{Policy: RollbackStage, Workers: 4}
	out, reports, err := NewPipeline(scatterStage{}).RunContext(context.Background(), r, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].RolledBack {
		t.Fatal("corrupting stage not rolled back under parallel execution")
	}
	requireSameData(t, "rolled-back stage", ds, out)
}

// panicOrBlockStage panics on the shard holding a marker trajectory and
// blocks on ctx everywhere else — proving that a panicking worker
// cancels its siblings instead of deadlocking the stage.
type panicOrBlockStage struct{ marker string }

func (panicOrBlockStage) Name() string        { return "panic-or-block" }
func (panicOrBlockStage) Task() Task          { return FaultCorrection }
func (panicOrBlockStage) Traits() StageTraits { return dataParallel }
func (s panicOrBlockStage) Apply(ctx context.Context, ds *Dataset) error {
	for _, tr := range ds.Trajectories {
		if tr.ID == s.marker {
			panic("marker shard exploded")
		}
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(5 * time.Second):
		return errors.New("sibling cancellation never arrived")
	}
}

func TestParallelRunnerPanicCancelsSiblings(t *testing.T) {
	ds := wideDataset(17, 8)
	marker := ds.Trajectories[0].ID
	r := &Runner{Policy: SkipStage, Workers: 4}
	start := time.Now()
	out, reports, err := NewPipeline(panicOrBlockStage{marker: marker}).RunContext(context.Background(), r, ds)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stage took %v; sibling cancellation is broken", elapsed)
	}
	if !reports[0].Skipped {
		t.Fatal("panicking stage not skipped")
	}
	if reports[0].Err == nil || errors.Is(reports[0].Err, context.Canceled) {
		t.Fatalf("report should carry the panic, not the cancellation echo: %v", reports[0].Err)
	}
	requireSameData(t, "panicked stage", ds, out)
}

func TestParallelRunnerFailFast(t *testing.T) {
	ds := wideDataset(19, 6)
	r := &Runner{Policy: FailFast, Workers: 4}
	_, reports, err := NewPipeline(alwaysFailStage{}).RunContext(context.Background(), r, ds)
	if err == nil {
		t.Fatal("fail-fast must surface the stage failure")
	}
	if len(reports) != 1 || reports[0].Skipped {
		t.Fatalf("unexpected reports under fail-fast: %+v", reports)
	}
}
