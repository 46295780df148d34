package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sidq/internal/geo"
)

// pointEntry is a named point, what the tests store by position.
type pointEntry struct {
	ID  string
	Pos geo.Point
}

func randomEntries(n int, extent float64, seed int64) []pointEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pointEntry, n)
	for i := range out {
		out[i] = pointEntry{
			ID:  fmt.Sprintf("p%d", i),
			Pos: geo.Pt(rng.Float64()*extent, rng.Float64()*extent),
		}
	}
	return out
}

// pointGrid stores entries' positions in g under their slice index.
func pointGrid(g *Grid, entries []pointEntry) {
	for i, e := range entries {
		g.Insert(i, geo.Rect{Min: e.Pos, Max: e.Pos})
	}
}

// gridRange is a range query over a pointGrid: the cells rect
// overlaps, then the exact containment test, as indices sorted.
func gridRange(g *Grid, entries []pointEntry, rect geo.Rect) []int {
	var out []int
	for _, c := range g.RectCells(rect, nil) {
		for _, id := range g.Cell(c) {
			if rect.Contains(entries[id].Pos) {
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

func bruteRange(entries []pointEntry, rect geo.Rect) []int {
	var out []int
	for i, e := range entries {
		if rect.Contains(e.Pos) {
			out = append(out, i)
		}
	}
	return out
}

func TestGridRangeMatchesBruteForce(t *testing.T) {
	entries := randomEntries(500, 1000, 1)
	g := NewGrid(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 50, 1<<16)
	pointGrid(g, entries)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		c := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		rect := geo.RectFromCenter(c, rng.Float64()*200, rng.Float64()*200)
		got, want := gridRange(g, entries, rect), bruteRange(entries, rect)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestGridOutOfBoundsClamping(t *testing.T) {
	g := NewGrid(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}, 1, 1<<16)
	entries := []pointEntry{{ID: "out", Pos: geo.Pt(-100, 200)}}
	pointGrid(g, entries)
	// It is still findable via a rect that covers its true position.
	if got := gridRange(g, entries, geo.Rect{Min: geo.Pt(-200, 100), Max: geo.Pt(0, 300)}); len(got) != 1 {
		t.Fatalf("clamped point not found: %v", got)
	}
	// And by one that lies wholly outside the grid.
	if got := gridRange(g, entries, geo.RectFromCenter(geo.Pt(-100, 200), 10, 10)); len(got) != 1 {
		t.Fatalf("clamped point not found from outside the grid: %v", got)
	}
}

// TestRingCellsKeepSweepOrder holds RingCells, which visits only the
// part of a ring inside the grid, to the full-ring sweep it replaced —
// every cell of the ring in order, those outside the grid skipped — for
// every cell of grids thin either way and every ring past both edges.
// The snapper discovers edges in this order, so every tie it breaks
// follows it.
func TestRingCellsKeepSweepOrder(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {3, 8}, {8, 3}, {5, 5}} {
		g := &Grid{nx: dims[0], ny: dims[1]}
		for cy := 0; cy < g.ny; cy++ {
			for cx := 0; cx < g.nx; cx++ {
				for ring := 0; ring <= max(g.nx, g.ny)+1; ring++ {
					var want []int
					cell := func(x, y int) {
						if x >= 0 && x < g.nx && y >= 0 && y < g.ny {
							want = append(want, y*g.nx+x)
						}
					}
					if ring == 0 {
						cell(cx, cy)
					}
					for dx := -ring; ring > 0 && dx <= ring; dx++ {
						if dx == -ring || dx == ring {
							for dy := -ring; dy <= ring; dy++ {
								cell(cx+dx, cy+dy)
							}
						} else {
							cell(cx+dx, cy-ring)
							cell(cx+dx, cy+ring)
						}
					}
					if got := g.RingCells(cx, cy, ring, nil); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%dx%d grid, cell (%d,%d), ring %d: %v, full sweep %v", g.nx, g.ny, cx, cy, ring, got, want)
					}
				}
			}
		}
	}
}

func TestRTreeSearchMatchesBruteForce(t *testing.T) {
	entries := randomEntries(800, 1000, 5)
	rt := NewRTree()
	for _, e := range entries {
		rt.Insert(RectEntry{ID: e.ID, Rect: geo.RectFromCenter(e.Pos, 2, 2)})
	}
	if rt.Len() != 800 {
		t.Fatalf("len = %d", rt.Len())
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		c := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		rect := geo.RectFromCenter(c, rng.Float64()*150, rng.Float64()*150)
		want := map[string]bool{}
		for _, e := range entries {
			if geo.RectFromCenter(e.Pos, 2, 2).Intersects(rect) {
				want[e.ID] = true
			}
		}
		got := rt.Search(rect)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d want %d", trial, len(got), len(want))
		}
		for _, e := range got {
			if !want[e.ID] {
				t.Fatalf("trial %d: unexpected %s", trial, e.ID)
			}
		}
	}
}

func TestRTreeEmptyAndSmall(t *testing.T) {
	rt := NewRTree()
	if rt.Search(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}) != nil {
		t.Fatal("empty search should be nil")
	}
	rt.Insert(RectEntry{ID: "x", Rect: geo.RectFromCenter(geo.Pt(5, 5), 1, 1)})
	got := rt.Search(geo.RectFromCenter(geo.Pt(5, 5), 10, 10))
	if len(got) != 1 || got[0].ID != "x" {
		t.Fatalf("got %+v", got)
	}
}

func TestRTreeInsertOrderInvariance(t *testing.T) {
	entries := randomEntries(200, 500, 9)
	query := geo.RectFromCenter(geo.Pt(250, 250), 100, 100)
	build := func(perm []int) int {
		rt := NewRTree()
		for _, i := range perm {
			e := entries[i]
			rt.Insert(RectEntry{ID: e.ID, Rect: geo.Rect{Min: e.Pos, Max: e.Pos}})
		}
		return len(rt.Search(query))
	}
	fwd := make([]int, len(entries))
	rev := make([]int, len(entries))
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(entries) - 1 - i
	}
	if build(fwd) != build(rev) {
		t.Fatal("search result count depends on insert order")
	}
}
