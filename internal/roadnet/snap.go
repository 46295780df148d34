package roadnet

import (
	"math"
	"sync"

	"sidq/internal/geo"
)

// Snap is the result of projecting a point onto the road network.
type Snap struct {
	Edge  EdgeID
	Param float64   // position along the edge in [0, 1]
	Pos   geo.Point // snapped position
	Dist  float64   // distance from the query point to Pos
}

// Snapper answers nearest-edge queries against a graph using a uniform
// grid over edge bounding rectangles. Build once, query many times.
// Queries are safe for concurrent use: per-query scratch (the
// epoch-stamped dedup array and candidate buffers) is pooled.
type Snapper struct {
	g        *Graph
	cellSize float64
	bounds   geo.Rect
	nx, ny   int
	cells    [][]EdgeID
	scratch  sync.Pool // *snapScratch
}

// snapScratch is the reusable per-query state: seen[eid] == epoch
// marks an edge as already examined this query, so restarting a query
// costs one counter increment instead of clearing (or reallocating)
// the whole array.
type snapScratch struct {
	seen  []uint32
	epoch uint32
	ring  []EdgeID
	snaps []Snap // the bounded candidate list of AppendKNearest
}

func (s *Snapper) getScratch() *snapScratch {
	scr, _ := s.scratch.Get().(*snapScratch)
	if scr == nil {
		scr = &snapScratch{seen: make([]uint32, s.g.NumEdges())}
	}
	scr.epoch++
	if scr.epoch == 0 { // counter wrapped: stale marks are ambiguous
		clear(scr.seen)
		scr.epoch = 1
	}
	return scr
}

// NewSnapper builds a snapper with the given grid cell size (meters).
// A non-positive cell size defaults to 100 m.
func NewSnapper(g *Graph, cellSize float64) *Snapper {
	if cellSize <= 0 {
		cellSize = 100
	}
	bounds := g.Bounds().Expand(cellSize)
	s := &Snapper{g: g, cellSize: cellSize, bounds: bounds}
	s.nx = int(math.Ceil(bounds.Width()/cellSize)) + 1
	s.ny = int(math.Ceil(bounds.Height()/cellSize)) + 1
	if s.nx < 1 {
		s.nx = 1
	}
	if s.ny < 1 {
		s.ny = 1
	}
	s.cells = make([][]EdgeID, s.nx*s.ny)
	for _, e := range g.edges {
		a := g.nodes[e.From].Pos
		b := g.nodes[e.To].Pos
		r := geo.RectFromPoints(a, b)
		lox, loy := s.cellOf(r.Min)
		hix, hiy := s.cellOf(r.Max)
		for cy := loy; cy <= hiy; cy++ {
			for cx := lox; cx <= hix; cx++ {
				i := cy*s.nx + cx
				s.cells[i] = append(s.cells[i], e.ID)
			}
		}
	}
	return s
}

func (s *Snapper) cellOf(p geo.Point) (int, int) {
	cx := int((p.X - s.bounds.Min.X) / s.cellSize)
	cy := int((p.Y - s.bounds.Min.Y) / s.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= s.nx {
		cx = s.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= s.ny {
		cy = s.ny - 1
	}
	return cx, cy
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
	if k <= 0 || s.g.NumEdges() == 0 {
		return dst
	}
	// Expand rings until k distinct edges have been seen and the ring
	// lower bound exceeds the k-th best distance. best is the 4k nearest
	// snaps so far (a buffer beyond k for later rings), ordered by
	// distance with ties in discovery order: each new snap is inserted
	// in place or, when it cannot make the 4k, dropped — what sorting
	// everything seen stably and truncating yields, without the sort.
	scr := s.getScratch()
	defer s.scratch.Put(scr)
	best := scr.snaps[:0]
	cx, cy := s.cellOf(p)
	for ring, maxRing := 0, max(s.nx, s.ny); ring <= maxRing; ring++ {
		if len(best) >= k && (float64(ring)-1)*s.cellSize > best[k-1].Dist {
			break
		}
		scr.ring = s.ringEdges(cx, cy, ring, scr.ring[:0])
		for _, eid := range scr.ring {
			if scr.seen[eid] == scr.epoch {
				continue
			}
			scr.seen[eid] = scr.epoch
			e := s.g.edges[eid]
			seg := geo.Segment{A: s.g.nodes[e.From].Pos, B: s.g.nodes[e.To].Pos}
			t := seg.ClosestParam(p)
			pos := seg.Interpolate(t)
			d := pos.Dist(p)
			if len(best) < 4*k {
				best = append(best, Snap{})
			} else if !(d < best[len(best)-1].Dist) {
				continue
			}
			j := len(best) - 1
			for ; j > 0 && d < best[j-1].Dist; j-- {
				best[j] = best[j-1]
			}
			best[j] = Snap{Edge: eid, Param: t, Pos: pos, Dist: d}
		}
	}
	scr.snaps = best // return grown capacity to the pool
	return append(dst, best[:min(k, len(best))]...)
}

// ringEdges appends to buf the edge ids stored in cells at Chebyshev
// distance ring from (cx, cy), in deterministic sweep order, and
// returns the extended buffer. Ids may repeat across cells; callers
// dedup with the scratch epoch array.
func (s *Snapper) ringEdges(cx, cy, ring int, buf []EdgeID) []EdgeID {
	if ring == 0 {
		return append(buf, s.cells[cy*s.nx+cx]...)
	}
	cell := func(x, y int) {
		if x < 0 || x >= s.nx || y < 0 || y >= s.ny {
			return
		}
		buf = append(buf, s.cells[y*s.nx+x]...)
	}
	for dx := -ring; dx <= ring; dx++ {
		if dx == -ring || dx == ring {
			for dy := -ring; dy <= ring; dy++ {
				cell(cx+dx, cy+dy)
			}
		} else {
			cell(cx+dx, cy-ring)
			cell(cx+dx, cy+ring)
		}
	}
	return buf
}
