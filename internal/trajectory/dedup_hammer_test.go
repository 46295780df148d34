package trajectory

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sidq/internal/geo"
)

// TestDedupPoolHammer runs CountDuplicates (what assessment calls) and
// Deduplicate (what the dedup stage calls) from many goroutines at once
// over shared inputs, so the dedupSets and dupMasks pools are drawn,
// dirtied and recycled concurrently. Under -race (make race-hammer)
// this catches a write into a shared point slice or a set handed out
// twice; the check against a fresh map catches a recycled set that
// still remembers its last trajectory.
func TestDedupPoolHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var srcs [][]Point
	var wantDups []int
	for k := 0; k < 6; k++ {
		pts := make([]Point, 100+rng.Intn(400))
		for i := range pts {
			pts[i] = Point{T: float64(rng.Intn(50)), Pos: geo.Pt(float64(rng.Intn(4)), float64(rng.Intn(4)))}
		}
		srcs = append(srcs, pts)
		wantDups = append(wantDups, len(pts)-len(aosDedup(pts)))
	}

	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % len(srcs)
				pts, want := srcs[k], wantDups[k]
				if got := CountDuplicates(pts); got != want {
					errs <- fmt.Sprintf("source %d: CountDuplicates = %d, a fresh map counts %d", k, got, want)
					return
				}
				if got := Deduplicate(pts); len(pts)-len(got) != want {
					errs <- fmt.Sprintf("source %d: Deduplicate dropped %d, a fresh map drops %d", k, len(pts)-len(got), want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
