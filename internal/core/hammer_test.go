package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sidq/internal/trajectory"
)

// TestOutlierFlagsScratchHammer hammers the outlier stage from many
// goroutines over shared source trajectories: every worker calls
// CleanPoints into its own point buffer, so the pooled orFlags buffers
// (and the detectors' pooled scratch) are constantly drawn, dirtied,
// and recycled concurrently while the underlying point slices are
// shared read-only. Run under -race (make race-hammer) this is the
// shared-scratch safety gate; the result check makes it a determinism
// gate too — every worker must produce the identical cleaning.
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
// shared input, so every stage's pooled scratch (the dedup sets and
// marks, the outlier flags, the smoother's steps) is contended across
// pipelines. Outputs must all match a lone run.
func TestConcurrentPipelineHammer(t *testing.T) {
	ds := spikyDataset(rand.New(rand.NewSource(82)), 12, 120)
	stages := []Stage{DeduplicateStage{}, OutlierRemovalStage{}, SmoothingStage{}}
	want, _, _ := DefaultRunner().Run(context.Background(), ds, stages)
	for _, got := range raceRuns(stages, ds, 6) {
		sameTrajectories(t, got.Trajectories, want.Trajectories)
	}
}
