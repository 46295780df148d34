// Package index provides the spatial access methods used by sidq's
// query and analysis layers: a uniform grid for point data, an R-tree
// for rectangles, and a time-bucketed spatio-temporal index for
// trajectories. Each answers range queries only.
//
// # Concurrency contract
//
// Every structure here is in-memory and follows the same build-then-
// read discipline; none carries internal locking.
//
//   - Grid: Insert requires exclusive access. Range is read-only and
//     safe to call from any number of goroutines once no writer is
//     active.
//   - RTree: Insert requires exclusive access. Search is read-only and
//     safe concurrently after loading.
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
