package trajectory

import (
	"strings"

	"sidq/internal/geo"
)

// Grouper groups samples by trajectory id, preserving first-appearance
// order. ParseCSVGroups feeds it row by row, and the server's CSV
// responses feed it result by result.
//
// Rows are recorded in a flat scratch and counted per id. The first
// read of the groups carves them all from one slab — the one an
// earlier use left when it holds them, else one of exactly the rows
// added — each group capped at its own length, and truncates the
// scratch: slice doubling per group cost twice the points' bytes. A
// caller that knows about how many rows it will add says so with Grow,
// and a scratch smaller than that is replaced once at that size rather
// than regrown by doubling. Every Add comes before the first read.
//
// The zero Grouper is empty and ready. A grouper is reusable memory:
// its owner calls Reset once nothing reads its groups, and the next use
// fills the slab, the trajectory headers, the id map and the id and
// count lists it kept. One never reset is left to the GC.
type Grouper struct {
	idx    map[string]int
	ids    []string
	counts []int      // rows per group, then each group's end in slab
	rows   []groupRow // the scratch, emptied by the carve
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

const (
	// maxKeptRows caps the scratch a grouper keeps past its carve: one
	// grown past 32 768 rows (1 MiB) is left to the GC.
	maxKeptRows = 1 << 15
	// maxKeptPoints caps what Reset keeps: a grouper whose slab or id
	// list grew past 65 536 (1.5 MiB of points) is emptied whole, so a
	// long body's points are not held after its request.
	maxKeptPoints = 1 << 16
)

// Grow readies the scratch for about rows samples before the first Add.
func (g *Grouper) Grow(rows int) {
	if cap(g.rows) < rows {
		g.rows = make([]groupRow, 0, rows)
	}
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
		if g.idx == nil {
			g.idx = map[string]int{}
		}
		own := strings.Clone(id)
		i = len(g.ids)
		g.idx[own] = i
		g.ids = append(g.ids, own)
		g.counts = append(g.counts, 0)
	}
	g.rows = append(g.rows, groupRow{g: i, p: Point{T: t, Pos: geo.Point{X: x, Y: y}}})
	g.counts[i]++
}

// carve moves the recorded rows into their groups, once.
func (g *Grouper) carve() {
	if g.carved {
		return
	}
	g.carved = true
	g.groups = resize(g.groups, len(g.ids))
	g.slab = resize(g.slab, len(g.rows))
	// counts become each group's next free slot in the slab, then its end.
	start := 0
	for i, c := range g.counts {
		g.counts[i] = start
		start += c
	}
	for _, r := range g.rows {
		g.slab[g.counts[r.g]] = r.p
		g.counts[r.g]++
	}
	start = 0
	for i, end := range g.counts {
		g.groups[i] = g.slab[start:end:end]
		start = end
	}
	g.rows = keptRows(g.rows)
}

// keptRows is the scratch emptied, or nil once it outgrew maxKeptRows.
func keptRows(rows []groupRow) []groupRow {
	if cap(rows) > maxKeptRows {
		return nil
	}
	return rows[:0]
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
// not be used afterwards, except to Reset it: the trajectories own its
// groups, and the trajectories and their headers are the grouper's
// memory until then.
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

// Reset empties the grouper for its next use, keeping its slab,
// headers, id map and lists. The caller must hold no group, point,
// trajectory or header of it past the call: the next use overwrites
// them. Ids are cloned strings, so an id stays valid.
func (g *Grouper) Reset() {
	if cap(g.slab) > maxKeptPoints || cap(g.ids) > maxKeptPoints {
		*g = Grouper{}
		return
	}
	// Every entry up to the length the grouper was used at is cleared,
	// so none past it pins an id or an older slab.
	clear(g.idx)
	clear(g.ids)
	clear(g.groups)
	clear(g.trs)
	*g = Grouper{
		idx: g.idx, ids: g.ids[:0], counts: g.counts[:0], rows: keptRows(g.rows), groups: g.groups[:0],
		slab: g.slab[:0], trs: g.trs[:0], ptrs: g.ptrs[:0],
	}
}
