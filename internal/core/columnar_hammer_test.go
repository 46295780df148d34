package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestColumnarScratchHammer hammers the columnar stage path from many
// goroutines over shared source trajectories: every worker drives
// Apply on its own COW clone, so the pooled conversion scratch
// and flag buffers are constantly drawn, dirtied, and recycled
// concurrently while the underlying point slices are shared read-only.
// Run under -race (make race-hammer) this is the columnar
// shared-scratch safety gate; the result check makes it a determinism
// gate too — every worker must produce the identical cleaning.
func TestColumnarScratchHammer(t *testing.T) {
	ds := spikyDataset(rand.New(rand.NewSource(81)), 8, 200)
	st := OutlierRemovalStage{}

	want := ds.CloneCOW()
	if err := st.Apply(context.Background(), want); err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := ds.CloneCOW()
				if err := st.Apply(context.Background(), got); err != nil {
					errs <- err.Error()
					return
				}
				for i := range want.Trajectories {
					a, b := got.Trajectories[i], want.Trajectories[i]
					if a.Len() != b.Len() {
						errs <- "cleaned length diverged across goroutines"
						return
					}
					for j := range b.Points {
						if a.Points[j] != b.Points[j] {
							errs <- "cleaned points diverged across goroutines"
							return
						}
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

// TestColumnarPipelineHammer races whole pipeline runs over one shared
// input, so the pooled columnar scratch is contended across pipelines.
// Outputs must all match a lone run.
func TestColumnarPipelineHammer(t *testing.T) {
	ds := spikyDataset(rand.New(rand.NewSource(82)), 12, 120)
	stages := []Stage{DeduplicateStage{}, OutlierRemovalStage{}, SmoothingStage{}}
	want, _, _ := DefaultRunner().Run(context.Background(), ds, stages)
	for _, got := range raceRuns(stages, ds, 6) {
		sameTrajectories(t, got.Trajectories, want.Trajectories)
	}
}
