// Package index provides sidq's spatial access methods: a uniform grid
// of integer ids, which the road-network snapper and the distributed
// point store search, and an R-tree of rectangles. Both hand back
// candidates by their bounding geometry only; callers test the exact
// geometry themselves.
//
// # Concurrency contract
//
// Both structures are in-memory and follow the same build-then-read
// discipline; neither carries internal locking.
//
//   - Grid: Insert requires exclusive access. CellOf, Cell, RingCells
//     and RectCells are read-only and safe to call from any number of
//     goroutines once no writer is active.
//   - RTree: Insert requires exclusive access. Search is read-only and
//     safe concurrently after loading.
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

// Grid is a uniform grid of square cells over a fixed extent, holding
// integer ids per cell in insertion order. The grid covers the extent
// expanded by one cell on every side; anything outside that is clamped
// into the border cells, so an insert never fails and every query
// position has a cell.
type Grid struct {
	bounds   geo.Rect
	cellSize float64
	nx, ny   int
	cells    [][]int
}

// NewGrid returns an empty grid over bounds with square cells of
// cellSize, which must be positive. The grid never has more than
// maxCells cells: when the bounds would need more, the cell is doubled
// until they fit, so memory follows the caller's budget and not the
// area the bounds span.
func NewGrid(bounds geo.Rect, cellSize float64, maxCells int) *Grid {
	limit := float64(maxCells)
	var expanded geo.Rect
	var fx, fy float64
	for {
		expanded = bounds.Expand(cellSize)
		fx = math.Ceil(expanded.Width()/cellSize) + 1
		fy = math.Ceil(expanded.Height()/cellSize) + 1
		if !(fx*fy > limit) {
			break
		}
		cellSize *= 2
	}
	g := &Grid{bounds: expanded, cellSize: cellSize, nx: 1, ny: 1}
	if fx*fy <= limit { // else no finite cell spans the bounds: one cell
		g.nx, g.ny = int(fx), int(fy)
	}
	g.cells = make([][]int, g.nx*g.ny)
	return g
}

// CellSize returns the side of a cell, after any doubling NewGrid did.
func (g *Grid) CellSize() float64 { return g.cellSize }

// Dims returns the number of cells along x and along y.
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// CellOf returns the column and row of the cell holding p, clamped into
// the grid.
func (g *Grid) CellOf(p geo.Point) (cx, cy int) {
	cx = int((p.X - g.bounds.Min.X) / g.cellSize)
	cy = int((p.Y - g.bounds.Min.Y) / g.cellSize)
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

// Cell returns the ids stored in cell c (row-major: cy*nx + cx) in
// insertion order. The slice is the grid's own; callers only read it.
func (g *Grid) Cell(c int) []int { return g.cells[c] }

// Insert adds id to every cell box overlaps, so a point (a box with
// Min == Max) lands in exactly one cell and a segment's bounding box in
// every cell it spans.
func (g *Grid) Insert(id int, box geo.Rect) {
	lox, loy := g.CellOf(box.Min)
	hix, hiy := g.CellOf(box.Max)
	for cy := loy; cy <= hiy; cy++ {
		for cx := lox; cx <= hix; cx++ {
			i := cy*g.nx + cx
			g.cells[i] = append(g.cells[i], id)
		}
	}
}

// RectCells appends to buf the indices of the cells r overlaps, row by
// row, and returns the extended buffer. With the clamp, these are all
// the cells that can hold an id inserted with a box that meets r,
// wherever outside the grid it lay.
func (g *Grid) RectCells(r geo.Rect, buf []int) []int {
	lox, loy := g.CellOf(r.Min)
	hix, hiy := g.CellOf(r.Max)
	for cy := loy; cy <= hiy; cy++ {
		for cx := lox; cx <= hix; cx++ {
			buf = append(buf, cy*g.nx+cx)
		}
	}
	return buf
}

// RingCells appends to buf the indices of the grid cells at Chebyshev
// distance ring from (cx, cy), in deterministic sweep order, and
// returns the extended buffer. The order is the ring's columns left to
// right — the two end columns bottom to top, each inner column its
// bottom cell then its top cell — with the cells outside the grid left
// out, so a ring costs the cells it holds, not its length: a query far
// outside a long, thin grid sweeps every ring up to max(nx, ny). An id
// inserted with a box is stored in every cell the box overlaps, so ids
// repeat across cells; callers dedup.
func (g *Grid) RingCells(cx, cy, ring int, buf []int) []int {
	if ring == 0 {
		return append(buf, cy*g.nx+cx)
	}
	column := func(x int) {
		if x >= 0 && x < g.nx {
			for y := max(cy-ring, 0); y <= min(cy+ring, g.ny-1); y++ {
				buf = append(buf, y*g.nx+x)
			}
		}
	}
	column(cx - ring)
	bottom, top := cy-ring >= 0, cy+ring < g.ny
	if bottom || top {
		for x := max(cx-ring+1, 0); x <= min(cx+ring-1, g.nx-1); x++ {
			if bottom {
				buf = append(buf, (cy-ring)*g.nx+x)
			}
			if top {
				buf = append(buf, (cy+ring)*g.nx+x)
			}
		}
	}
	column(cx + ring)
	return buf
}
