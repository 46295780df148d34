// Package index provides the spatial access methods used by sidq's
// query and analysis layers: a uniform grid for point data, an R-tree
// for rectangles, a point quadtree, and a time-bucketed spatio-temporal
// index for trajectories.
//
// # Concurrency contract
//
// Every structure here is in-memory and follows the same build-then-
// read discipline; none carries internal locking.
//
//   - Grid: Insert and Remove require exclusive access. Range and KNN
//     are read-only and safe to call from any number of goroutines once
//     no writer is active.
//   - RTree: Insert requires exclusive access. Search and KNN are
//     read-only and safe concurrently after loading. BulkLoadRTree
//     returns a fully-constructed tree that retains no reference to the
//     caller's entry slice, so the returned tree may be shared across
//     goroutines for reads immediately.
//   - Quadtree: Insert requires exclusive access; Range and Depth are
//     concurrent-read safe after loading.
//   - TrajectoryIndex: Add requires exclusive access; Get, Len, and
//     RangeQuery are concurrent-read safe after loading.
//
// "Safe after loading" means the caller must establish a happens-before
// edge between the last write and the first concurrent read (e.g. by
// starting the reader goroutines after the build returns, or via
// channel/WaitGroup handoff) — the structures add no synchronization of
// their own. Mixing even one writer with readers requires external
// locking. These invariants are exercised under the race detector in
// concurrency_test.go.
package index

import (
	"container/heap"
	"math"

	"sidq/internal/geo"
)

// PointEntry is a point payload stored in a point index.
type PointEntry struct {
	ID  string
	Pos geo.Point
}

// Grid is a uniform grid over a fixed extent. Points outside the extent
// are clamped into the border cells, so inserts never fail.
type Grid struct {
	bounds   geo.Rect
	cellSize float64
	nx, ny   int
	cells    [][]PointEntry
	count    int
}

// NewGrid returns a grid covering bounds with square cells of the given
// size. cellSize must be positive and bounds non-empty.
func NewGrid(bounds geo.Rect, cellSize float64) *Grid {
	if bounds.IsEmpty() || cellSize <= 0 {
		bounds = geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}
		cellSize = 1
	}
	nx := int(math.Ceil(bounds.Width() / cellSize))
	ny := int(math.Ceil(bounds.Height() / cellSize))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		nx:       nx,
		ny:       ny,
		cells:    make([][]PointEntry, nx*ny),
	}
}

// Len returns the number of stored entries.
func (g *Grid) Len() int { return g.count }

// Bounds returns the grid extent.
func (g *Grid) Bounds() geo.Rect { return g.bounds }

func (g *Grid) cellOf(p geo.Point) (int, int) {
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

// Insert adds an entry to the grid.
func (g *Grid) Insert(e PointEntry) {
	cx, cy := g.cellOf(e.Pos)
	i := cy*g.nx + cx
	g.cells[i] = append(g.cells[i], e)
	g.count++
}

// Remove deletes the first entry with the given id at the given
// position. It reports whether an entry was removed.
func (g *Grid) Remove(id string, pos geo.Point) bool {
	cx, cy := g.cellOf(pos)
	i := cy*g.nx + cx
	for j, e := range g.cells[i] {
		if e.ID == id {
			g.cells[i] = append(g.cells[i][:j], g.cells[i][j+1:]...)
			g.count--
			return true
		}
	}
	return false
}

// Range returns all entries whose position lies in rect.
func (g *Grid) Range(rect geo.Rect) []PointEntry {
	if rect.IsEmpty() || g.count == 0 {
		return nil
	}
	lox, loy := g.cellOf(rect.Min)
	hix, hiy := g.cellOf(rect.Max)
	var out []PointEntry
	for cy := loy; cy <= hiy; cy++ {
		for cx := lox; cx <= hix; cx++ {
			for _, e := range g.cells[cy*g.nx+cx] {
				if rect.Contains(e.Pos) {
					out = append(out, e)
				}
			}
		}
	}
	return out
}

// Neighbor is a k-nearest-neighbor search result.
type Neighbor struct {
	Entry PointEntry
	Dist  float64
}

// KNN returns the k entries nearest to q, ordered by increasing
// distance. It expands the search ring by rings of cells until the k-th
// best distance is provably final.
func (g *Grid) KNN(q geo.Point, k int) []Neighbor {
	if k <= 0 || g.count == 0 {
		return nil
	}
	if k > g.count {
		k = g.count
	}
	cx, cy := g.cellOf(q)
	best := &maxNeighborHeap{}
	maxRing := g.nx
	if g.ny > maxRing {
		maxRing = g.ny
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once the heap is full, stop if the nearest possible point in
		// this ring is farther than the current k-th best.
		if best.Len() == k {
			minPossible := (float64(ring) - 1) * g.cellSize
			if minPossible > (*best)[0].Dist {
				break
			}
		}
		g.visitRing(cx, cy, ring, func(e PointEntry) {
			d := e.Pos.Dist(q)
			if best.Len() < k {
				heap.Push(best, Neighbor{Entry: e, Dist: d})
			} else if d < (*best)[0].Dist {
				(*best)[0] = Neighbor{Entry: e, Dist: d}
				heap.Fix(best, 0)
			}
		})
	}
	out := make([]Neighbor, best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(Neighbor)
	}
	return out
}

// visitRing calls fn for each entry in cells at Chebyshev distance ring
// from (cx, cy).
func (g *Grid) visitRing(cx, cy, ring int, fn func(PointEntry)) {
	if ring == 0 {
		for _, e := range g.cells[cy*g.nx+cx] {
			fn(e)
		}
		return
	}
	for dx := -ring; dx <= ring; dx++ {
		for _, dy := range ringDYs(dx, ring) {
			x, y := cx+dx, cy+dy
			if x < 0 || x >= g.nx || y < 0 || y >= g.ny {
				continue
			}
			for _, e := range g.cells[y*g.nx+x] {
				fn(e)
			}
		}
	}
}

func ringDYs(dx, ring int) []int {
	if dx == -ring || dx == ring {
		ys := make([]int, 0, 2*ring+1)
		for dy := -ring; dy <= ring; dy++ {
			ys = append(ys, dy)
		}
		return ys
	}
	return []int{-ring, ring}
}

// maxNeighborHeap is a max-heap of neighbors by distance, used to keep
// the best k seen so far.
type maxNeighborHeap []Neighbor

func (h maxNeighborHeap) Len() int            { return len(h) }
func (h maxNeighborHeap) Less(i, j int) bool  { return h[i].Dist > h[j].Dist }
func (h maxNeighborHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxNeighborHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *maxNeighborHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
