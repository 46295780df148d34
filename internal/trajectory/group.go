package trajectory

import (
	"strings"
	"sync"

	"sidq/internal/geo"
)

// Grouper groups samples by trajectory id, preserving first-appearance
// order. ParseCSV feeds it row by row, and the server's CSV responses
// feed it result by result.
//
// Rows are recorded in one flat pooled scratch and counted per id. The
// first read of the groups carves them all from one slab — a released
// grouper's when it holds them, else one of exactly the rows added —
// each group capped at its own length, and hands the scratch back:
// slice doubling per group cost twice the points' bytes.
// A caller that knows about how many rows it will add says so, and a
// pooled scratch smaller than that — a fresh one after the pool lost
// its items to a collection — is replaced once at that size rather
// than regrown by doubling. Every Add comes before the first read.
//
// A grouper is request-scoped memory. NewGrouper takes one from a
// pool, with the slab, the trajectory headers, the id map and the id
// and count lists a released one left behind, and Release hands all of
// it back. A caller that never releases leaves it to the GC.
type Grouper struct {
	idx    map[string]int
	ids    []string
	hint   int         // rows the caller expects, 0 if unknown
	counts []int       // rows per group, then each group's end in slab
	rows   *[]groupRow // the scratch, until the carve
	carved bool
	groups [][]Point     // views of slab, set by the carve
	slab   []Point       // every group's points
	trs    []Trajectory  // the headers Trajectories hands over
	ptrs   []*Trajectory // pointers to trs
}

// groupRow is one recorded sample and the group it belongs to.
type groupRow struct {
	g int
	p Point
}

// groupRows recycles the groupers' scratch. A scratch grown past
// groupRowsPooledMax rows (1 MiB) is left to the GC.
var groupRows = sync.Pool{New: func() any { return new([]groupRow) }}

const groupRowsPooledMax = 1 << 15

// groupers recycles released groupers. One whose slab or id list grew
// past maxPooledPoints (1.5 MiB of points) is left to the GC, so a long
// body's points are not held after its request.
var groupers = sync.Pool{New: func() any { return &Grouper{idx: map[string]int{}} }}

const maxPooledPoints = 1 << 16

// NewGrouper returns an empty grouper for about rows samples, 0 when
// the caller cannot tell.
func NewGrouper(rows int) *Grouper {
	g := groupers.Get().(*Grouper)
	g.hint = rows
	return g
}

// Add appends one sample to id's group, creating the group on first
// appearance. id may alias a buffer the caller goes on to reuse: the
// lookup copies nothing, and a first appearance clones the id, so the
// grouper never pins that buffer. Add after Points or Trajectories is
// a bug, and panics.
func (g *Grouper) Add(id string, t, x, y float64) {
	if g.carved {
		panic("trajectory: Grouper.Add after its groups were read")
	}
	i, ok := g.idx[id]
	if !ok {
		own := strings.Clone(id)
		i = len(g.ids)
		g.idx[own] = i
		g.ids = append(g.ids, own)
		g.counts = append(g.counts, 0)
	}
	if g.rows == nil {
		g.rows = groupRows.Get().(*[]groupRow)
		if cap(*g.rows) < g.hint {
			*g.rows = make([]groupRow, 0, g.hint)
		}
	}
	*g.rows = append(*g.rows, groupRow{g: i, p: Point{T: t, Pos: geo.Point{X: x, Y: y}}})
	g.counts[i]++
}

// carve moves the recorded rows into their groups, once.
func (g *Grouper) carve() {
	if g.carved {
		return
	}
	g.carved = true
	g.groups = resize(g.groups, len(g.ids))
	if g.rows == nil {
		return
	}
	rows := *g.rows
	g.slab = resize(g.slab, len(rows))
	// counts become each group's next free slot in the slab, then its end.
	start := 0
	for i, c := range g.counts {
		g.counts[i] = start
		start += c
	}
	for _, r := range rows {
		g.slab[g.counts[r.g]] = r.p
		g.counts[r.g]++
	}
	start = 0
	for i, end := range g.counts {
		g.groups[i] = g.slab[start:end:end]
		start = end
	}
	g.putRows()
}

// putRows hands the scratch back to its pool.
func (g *Grouper) putRows() {
	if cap(*g.rows) <= groupRowsPooledMax {
		*g.rows = (*g.rows)[:0]
		groupRows.Put(g.rows)
	}
	g.rows = nil
}

// resize returns s at length n, reusing its array when it holds n. A
// nil s comes back non-nil.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// IDs returns the group ids in first-appearance order. The slice is the
// grouper's own; callers must not modify it.
func (g *Grouper) IDs() []string { return g.ids }

// Points returns id's group in as-added order, or nil if the id was
// never added. The slice is the grouper's own.
func (g *Grouper) Points(id string) []Point {
	if i, ok := g.idx[id]; ok {
		g.carve()
		return g.groups[i]
	}
	return nil
}

// Trajectories hands every group over as a trajectory, in
// first-appearance order, each time-sorted in place. The grouper must
// not be used afterwards, except to Release it: the trajectories own
// its groups, and the trajectories and their headers are the
// grouper's memory until then.
func (g *Grouper) Trajectories() []*Trajectory {
	g.carve()
	n := len(g.groups)
	g.trs, g.ptrs = resize(g.trs, n), resize(g.ptrs, n)
	for i, pts := range g.groups {
		sortByTime(pts)
		g.trs[i] = Trajectory{ID: g.ids[i], Points: pts}
		g.ptrs[i] = &g.trs[i]
	}
	return g.ptrs[:n:n]
}

// Release hands the grouper back to the pool, with its slab, headers,
// id map and lists. The caller must hold no group, point, trajectory or
// header of it past the call: the next grouper reuses them. Ids are
// cloned strings, so an id stays valid.
func (g *Grouper) Release() {
	if g.rows != nil { // never carved: the parse failed
		g.putRows()
	}
	if cap(g.slab) > maxPooledPoints || cap(g.ids) > maxPooledPoints {
		return
	}
	// Every grouper in the pool was cleared up to the length it was
	// used at, so no entry past that pins an id or an older slab.
	clear(g.idx)
	clear(g.ids)
	clear(g.groups)
	clear(g.trs)
	*g = Grouper{
		idx: g.idx, ids: g.ids[:0], counts: g.counts[:0], groups: g.groups[:0],
		slab: g.slab[:0], trs: g.trs[:0], ptrs: g.ptrs[:0],
	}
	groupers.Put(g)
}
