package roadnet

import (
	"math"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/index"
)

// Snap is the result of projecting a point onto the road network.
type Snap struct {
	Edge  EdgeID
	Param float64   // position along the edge in [0, 1]
	Pos   geo.Point // snapped position
	Dist  float64   // distance from the query point to Pos
}

// Snapper answers nearest-edge queries against a graph using a uniform
// grid (index.Grid) over edge bounding rectangles. Build once, query
// many times. Queries are safe for concurrent use: per-query scratch
// (the epoch-stamped dedup array and candidate buffers) is pooled.
type Snapper struct {
	grid    *index.Grid // edge ids by the cells their boxes overlap
	edges   []snapEdge  // by edge id: everything a query reads of an edge
	slack   float64     // absolute margin of the box test, see rejectBar2
	scratch sync.Pool   // *snapScratch
}

// snapEdge is one edge as the search sees it: its segment and the
// segment's bounding box, snapshotted by NewSnapper so that examining
// an edge is one 64-byte load instead of the edge and both its nodes.
type snapEdge struct {
	geo.Segment
	lo, hi geo.Point
}

// boxDist2 returns the squared distance from p to e's bounding box, a
// lower bound of the squared distance from p to the segment.
func (e *snapEdge) boxDist2(p geo.Point) float64 {
	var dx, dy float64
	if p.X < e.lo.X {
		dx = e.lo.X - p.X
	} else if p.X > e.hi.X {
		dx = p.X - e.hi.X
	}
	if p.Y < e.lo.Y {
		dy = e.lo.Y - p.Y
	} else if p.Y > e.hi.Y {
		dy = p.Y - e.hi.Y
	}
	return dx*dx + dy*dy
}

// snapScratch is the reusable per-query state: seen[eid] == epoch
// marks an edge as already examined this query, so restarting a query
// costs one counter increment instead of clearing (or reallocating)
// the whole array.
type snapScratch struct {
	seen       []uint32
	epoch      uint32
	ring       []int  // cell indices of the ring being swept
	snaps      []Snap // the k nearest so far
	boxRejects int    // edges the box test skipped, over the scratch's life
}

func (s *Snapper) getScratch() *snapScratch {
	scr, _ := s.scratch.Get().(*snapScratch)
	if scr == nil {
		scr = &snapScratch{seen: make([]uint32, len(s.edges))}
	}
	scr.epoch++
	if scr.epoch == 0 { // counter wrapped: stale marks are ambiguous
		clear(scr.seen)
		scr.epoch = 1
	}
	return scr
}

// NewSnapper builds a snapper with the given grid cell size (meters).
// A non-positive cell size defaults to 100 m. The grid never has more
// than max(2^16, 4·edges) cells: on a network whose bounding box would
// need more, the cell is doubled until it fits, so memory follows the
// edge count and not the area the network spans.
func NewSnapper(g *Graph, cellSize float64) *Snapper {
	if cellSize <= 0 {
		cellSize = 100
	}
	s := &Snapper{
		grid:  index.NewGrid(g.Bounds(), cellSize, max(1<<16, 4*g.NumEdges())),
		edges: make([]snapEdge, len(g.edges)),
	}
	var maxAbs float64
	for _, e := range g.edges {
		a := g.nodes[e.From].Pos
		b := g.nodes[e.To].Pos
		r := geo.RectFromPoints(a, b)
		s.edges[e.ID] = snapEdge{Segment: geo.Segment{A: a, B: b}, lo: r.Min, hi: r.Max}
		maxAbs = max(maxAbs, math.Abs(a.X), math.Abs(a.Y), math.Abs(b.X), math.Abs(b.Y))
		s.grid.Insert(int(e.ID), r)
	}
	s.slack = maxAbs * 0x1p-40
	return s
}

// rejectBar2 is the box test's threshold for a k-th distance of bar: an
// edge whose squared box distance exceeds it is at least bar from p
// when measured the way the search measures it, so it cannot enter.
//
// The margins cover every rounding between the box and that measure.
// The computed projection lies within 6·M·2⁻⁵³ of the segment's box on
// each axis (M the largest |coordinate| of any node: one subtraction,
// one product and one sum in Interpolate), which slack = M·2⁻⁴⁰ covers
// more than a thousand times over; the box distance, p − pos and
// math.Hypot each carry a few units of 2⁻⁵³ relative error, which the
// factor 1+2⁻²⁰ covers. A NaN bar makes the threshold NaN, and so does
// a NaN box distance the comparison: neither rejects anything.
func (s *Snapper) rejectBar2(bar float64) float64 {
	r := bar*(1+0x1p-20) + s.slack
	return r * r
}

// KNearest returns up to k snaps onto distinct edges, ordered by
// increasing distance, in a fresh slice the caller owns. It is used by
// map-matching to form candidate sets.
func (s *Snapper) KNearest(p geo.Point, k int) []Snap {
	return s.AppendKNearest(nil, p, k)
}

// AppendKNearest appends KNearest(p, k) to dst and returns the extended
// slice; nothing of the snapper's is retained in it, so it is the
// caller's for as long as dst's storage is. With cap(dst)-len(dst) >= k
// a warm call allocates nothing.
func (s *Snapper) AppendKNearest(dst []Snap, p geo.Point, k int) []Snap {
	if k <= 0 || len(s.edges) == 0 {
		return dst
	}
	scr := s.getScratch()
	dst = s.appendKNearest(scr, dst, p, k)
	s.scratch.Put(scr)
	return dst
}

// appendKNearest is AppendKNearest on a given scratch. Rings expand
// until k distinct edges have been seen and the ring lower bound
// exceeds the k-th best distance. best is the k nearest snaps so far,
// ordered by distance with ties in discovery order: a snap enters only
// if it is nearer than best[k-1], in place. An insert's position
// depends only on the entries ahead of it and the stop test reads only
// best[k-1], so what deeper buffers held beyond k never reached the
// output. Once best holds k, an edge whose box is farther than best[k-1]
// is skipped without projecting it (rejectBar2).
func (s *Snapper) appendKNearest(scr *snapScratch, dst []Snap, p geo.Point, k int) []Snap {
	best := scr.snaps[:0]
	bar2 := math.Inf(1)
	cellSize := s.grid.CellSize()
	nx, ny := s.grid.Dims()
	cx, cy := s.grid.CellOf(p)
	for ring, maxRing := 0, max(nx, ny); ring <= maxRing; ring++ {
		if len(best) >= k && (float64(ring)-1)*cellSize > best[k-1].Dist {
			break
		}
		scr.ring = s.grid.RingCells(cx, cy, ring, scr.ring[:0])
		for _, c := range scr.ring {
			for _, eid := range s.grid.Cell(c) {
				if scr.seen[eid] == scr.epoch {
					continue
				}
				scr.seen[eid] = scr.epoch
				e := &s.edges[eid]
				if e.boxDist2(p) > bar2 {
					scr.boxRejects++
					continue
				}
				t := e.ClosestParam(p)
				pos := e.Interpolate(t)
				d := pos.Dist(p)
				if len(best) < k {
					best = append(best, Snap{})
				} else if !(d < best[k-1].Dist) {
					continue
				}
				j := len(best) - 1
				for ; j > 0 && d < best[j-1].Dist; j-- {
					best[j] = best[j-1]
				}
				best[j] = Snap{Edge: EdgeID(eid), Param: t, Pos: pos, Dist: d}
				if len(best) == k {
					bar2 = s.rejectBar2(best[k-1].Dist)
				}
			}
		}
	}
	scr.snaps = best // return grown capacity to the pool
	return append(dst, best...)
}
