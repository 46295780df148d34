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
// first read of the groups carves them all from one allocation of
// exactly the rows added, each group capped at its own length, and
// hands the scratch back: slice doubling per group cost twice the
// points' bytes. A caller that knows about how many rows it will add
// says so, and a pooled scratch smaller than that — a fresh one after
// the pool lost its items to a collection — is replaced once at that
// size rather than regrown by doubling. Every Add comes before the
// first read.
type Grouper struct {
	idx    map[string]int
	ids    []string
	hint   int         // rows the caller expects, 0 if unknown
	counts []int       // rows per group, until the carve
	rows   *[]groupRow // the scratch, until the carve
	groups [][]Point   // set by the carve; non-nil once carved
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

// NewGrouper returns an empty grouper for about rows samples, 0 when
// the caller cannot tell.
func NewGrouper(rows int) *Grouper {
	return &Grouper{idx: map[string]int{}, hint: rows}
}

// Add appends one sample to id's group, creating the group on first
// appearance. id may alias a buffer the caller goes on to reuse: the
// lookup copies nothing, and a first appearance clones the id, so the
// grouper never pins that buffer. Add after Points or Trajectories is
// a bug, and panics.
func (g *Grouper) Add(id string, t, x, y float64) {
	if g.groups != nil {
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
	if g.groups != nil {
		return
	}
	g.groups = make([][]Point, len(g.ids))
	if g.rows == nil {
		return
	}
	rows := *g.rows
	all := make([]Point, len(rows))
	// counts become each group's next free slot in all, then its end.
	start := 0
	for i, c := range g.counts {
		g.counts[i] = start
		start += c
	}
	for _, r := range rows {
		all[g.counts[r.g]] = r.p
		g.counts[r.g]++
	}
	start = 0
	for i, end := range g.counts {
		g.groups[i] = all[start:end:end]
		start = end
	}
	if cap(rows) <= groupRowsPooledMax {
		*g.rows = rows[:0]
		groupRows.Put(g.rows)
	}
	g.rows = nil
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
// not be used afterwards: the trajectories own its groups.
func (g *Grouper) Trajectories() []*Trajectory {
	g.carve()
	out := make([]*Trajectory, len(g.groups))
	for i, pts := range g.groups {
		sortByTime(pts)
		out[i] = &Trajectory{ID: g.ids[i], Points: pts}
	}
	return out
}
