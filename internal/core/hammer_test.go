package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// TestOutlierFlagsScratchHammer hammers the outlier stage from many
// goroutines over shared source trajectories: every worker calls
// CleanPoints into its own point buffer, with a StageRun built outside
// a round, so every call allocates its own flag and float scratch
// while the underlying point slices are shared read-only. Run under
// -race (make race-hammer) this is the shared-scratch safety gate; the
// result check makes it a determinism gate too — every worker must
// produce the identical cleaning.
func TestOutlierFlagsScratchHammer(t *testing.T) {
	ds := spikyDataset(rand.New(rand.NewSource(81)), 8, 200)
	st := OutlierRemovalStage{}
	clean := func(run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) []trajectory.Point {
		out, err := st.CleanPoints(context.Background(), run, tr, dst)
		if err != nil {
			panic(err)
		}
		return out
	}

	want := make([][]trajectory.Point, len(ds.Trajectories))
	for i, tr := range ds.Trajectories {
		want[i] = slices.Clone(clean(&StageRun{Dataset: ds}, tr, nil))
	}

	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []trajectory.Point
			for r := 0; r < rounds; r++ {
				for i, tr := range ds.Trajectories {
					got := clean(&StageRun{Dataset: ds}, tr, buf[:0])
					if !slices.Equal(got, want[i]) {
						errs <- "cleaned points diverged across goroutines"
						return
					}
					if !samePoints(got, tr.Points) {
						buf = got
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentPipelineHammer races whole pipeline runs over one
// shared input, so every pooled scratch a stage reaches (each round's
// scratch with its point buffers, outlier flags and windows, the dedup
// sets, the smoother's steps) is contended across pipelines. Outputs
// must all match a lone run.
func TestConcurrentPipelineHammer(t *testing.T) {
	ds := spikyDataset(rand.New(rand.NewSource(82)), 12, 120)
	stages := []Stage{DeduplicateStage{}, OutlierRemovalStage{}, SmoothingStage{}}
	want, _, _ := DefaultRunner().Run(context.Background(), ds, stages)
	for _, got := range raceRuns(stages, ds, 6) {
		sameTrajectories(t, got.Trajectories, want.Trajectories)
	}
}

// scratchStage hands each CleanPoints call to fn, with the call's
// StageRun; it leaves the readings as they are.
type scratchStage struct {
	fn func(run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) []trajectory.Point
}

func (scratchStage) Name() string { return "scratch" }
func (scratchStage) Task() Task   { return FaultCorrection }
func (s scratchStage) CleanPoints(_ context.Context, run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	return s.fn(run, tr, dst), nil
}
func (scratchStage) CleanReadings(_ context.Context, _ *StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}

// TestAbandonedRoundScratchIsNeverReused: a round cut at its deadline
// abandons a worker whose stage ignores ctx and goes on writing into
// its point buffer, so that worker's scratch must never reach a later
// round. The next run on the same goroutine gets a different scratch.
// It runs on one P with collections held off, as the server's
// warm-allocation tests do: there a scratch put back in the pool is
// the very one the next Get returns, so releasing the abandoned one
// shows every time.
func TestAbandonedRoundScratchIsNeverReused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ds := dirtyDataset(31)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop, stopped := make(chan struct{}), make(chan struct{})
	var abandoned *roundScratch
	deaf := scratchStage{fn: func(run *StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) []trajectory.Point {
		abandoned = run.scratch
		cancel()
		defer close(stopped)
		for {
			select {
			case <-stop:
				return dst
			default:
				dst = append(dst[:0], tr.Points...)
				runtime.Gosched()
			}
		}
	}}
	if _, _, err := DefaultRunner().Run(ctx, ds, []Stage{deaf}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the round cancelled", err)
	}

	var next *roundScratch
	record := scratchStage{fn: func(run *StageRun, tr *trajectory.Trajectory, _ []trajectory.Point) []trajectory.Point {
		next = run.scratch
		return tr.Points
	}}
	_, _, err := DefaultRunner().Run(context.Background(), ds, []Stage{record})
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if abandoned == nil || next == nil {
		t.Fatal("a round's stage saw no scratch")
	}
	if next == abandoned {
		t.Fatal("the next round got the scratch an abandoned worker still writes into")
	}
}
