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
// concurrency contract — so the race detector can vouch for it.
func TestConcurrentReadersAfterLoad(t *testing.T) {
	const readers = 8
	const queries = 200
	points := randomEntries(3000, 1000, 77)

	grid := NewGrid(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 25)
	rt := NewRTree()
	for _, e := range points {
		grid.Insert(e)
		rt.Insert(RectEntry{ID: e.ID, Rect: geo.RectFromCenter(e.Pos, 2, 2)})
	}
	ti := NewTrajectoryIndex(60)
	for i := 0; i < 20; i++ {
		ti.Add(makeTraj(fmt.Sprintf("t%d", i), geo.Pt(float64(i*40), 0), 1, 1, 0, 100, 1))
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
				rect := geo.RectFromCenter(p, 50, 50)
				if got := grid.Range(rect); len(got) == 0 && q == -1 {
					t.Error("unreachable")
				}
				rt.Search(rect)
				ti.RangeQuery(rect, 0, 100)
				ti.Get("t3")
			}
		}(int64(r))
	}
	wg.Wait()

	if grid.Len() != 3000 || rt.Len() != 3000 || ti.Len() != 20 {
		t.Fatalf("lengths changed under read load: %d %d %d",
			grid.Len(), rt.Len(), ti.Len())
	}
}
