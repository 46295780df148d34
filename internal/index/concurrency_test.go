package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sidq/internal/geo"
)

// TestConcurrentReadersAfterLoad hammers every index structure with
// concurrent readers after single-threaded loading — the documented
// concurrency contract — so the race detector can vouch for it. Both
// hold the same points, so every reader also checks that they agree.
func TestConcurrentReadersAfterLoad(t *testing.T) {
	const readers = 8
	const queries = 200
	points := randomEntries(3000, 1000, 77)

	grid := NewGrid(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 25, 1<<16)
	pointGrid(grid, points)
	rt := NewRTree()
	for _, e := range points {
		rt.Insert(RectEntry{ID: e.ID, Rect: geo.Rect{Min: e.Pos, Max: e.Pos}})
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
				rect := geo.RectFromCenter(p, 50, 50)
				if g, r := len(gridRange(grid, points, rect)), len(rt.Search(rect)); g != r {
					errs <- fmt.Errorf("query %v: grid found %d points, R-tree %d", rect, g, r)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := len(gridRange(grid, points, geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)})); got != 3000 || rt.Len() != 3000 {
		t.Fatalf("lengths changed under read load: %d %d", got, rt.Len())
	}
}
