package trajectory

import (
	"strings"

	"sidq/internal/geo"
)

// Grouper groups samples by trajectory id, preserving first-appearance
// order. ParseCSV feeds it row by row, and the server's CSV responses
// feed it result by result.
type Grouper struct {
	idx    map[string]int
	ids    []string
	groups [][]Point
}

// NewGrouper returns an empty grouper.
func NewGrouper() *Grouper {
	return &Grouper{idx: map[string]int{}}
}

// Add appends one sample to id's group, creating the group on first
// appearance. id may alias a buffer the caller goes on to reuse: the
// lookup copies nothing, and a first appearance clones the id, so the
// grouper never pins that buffer.
func (g *Grouper) Add(id string, t, x, y float64) {
	i, ok := g.idx[id]
	if !ok {
		own := strings.Clone(id)
		i = len(g.groups)
		g.idx[own] = i
		g.ids = append(g.ids, own)
		g.groups = append(g.groups, nil)
	}
	g.groups[i] = append(g.groups[i], Point{T: t, Pos: geo.Point{X: x, Y: y}})
}

// IDs returns the group ids in first-appearance order. The slice is the
// grouper's own; callers must not modify it.
func (g *Grouper) IDs() []string { return g.ids }

// Points returns id's group in as-added order, or nil if the id was
// never added. The slice is the grouper's own.
func (g *Grouper) Points(id string) []Point {
	if i, ok := g.idx[id]; ok {
		return g.groups[i]
	}
	return nil
}

// Trajectories hands every group over as a trajectory, in
// first-appearance order, each time-sorted in place. The grouper must
// not be used afterwards: the trajectories own its groups.
func (g *Grouper) Trajectories() []*Trajectory {
	out := make([]*Trajectory, len(g.groups))
	for i, pts := range g.groups {
		sortByTime(pts)
		out[i] = &Trajectory{ID: g.ids[i], Points: pts}
	}
	return out
}
