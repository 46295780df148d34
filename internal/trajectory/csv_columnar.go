package trajectory

import (
	"sort"
	"strings"
)

// ColumnsBuilder groups samples by trajectory id into columnar form,
// preserving first-appearance order. ParseCSV feeds it row by row, and
// the server's CSV responses feed it result by result; either way
// points land directly in flat T/X/Y slices instead of per-id []Point
// groups.
type ColumnsBuilder struct {
	idx  map[string]int
	ids  []string
	cols []*Columns
}

// NewColumnsBuilder returns an empty builder.
func NewColumnsBuilder() *ColumnsBuilder {
	return &ColumnsBuilder{idx: map[string]int{}}
}

// Add appends one sample to id's column group, creating the group on
// first appearance. id may alias a buffer the caller goes on to reuse:
// the lookup copies nothing, and a first appearance clones the id, so
// the builder never pins that buffer.
func (b *ColumnsBuilder) Add(id string, t, x, y float64) {
	i, ok := b.idx[id]
	if !ok {
		own := strings.Clone(id)
		i = len(b.cols)
		b.idx[own] = i
		b.ids = append(b.ids, own)
		b.cols = append(b.cols, &Columns{})
	}
	b.cols[i].Append(t, x, y)
}

// IDs returns the group ids in first-appearance order. The slice is the
// builder's own; callers must not modify it.
func (b *ColumnsBuilder) IDs() []string { return b.ids }

// Columns returns id's column group in as-added order, or nil if the id
// was never added. The returned value is the builder's live group.
func (b *ColumnsBuilder) Columns(id string) *Columns {
	if i, ok := b.idx[id]; ok {
		return b.cols[i]
	}
	return nil
}

// Trajectories materializes every group in first-appearance order with
// each trajectory time-sorted. Already-ordered groups (the common case)
// are detected with one linear pass and materialized without the stable
// sort, mirroring trajectory.New's fast path without its extra copy.
func (b *ColumnsBuilder) Trajectories() []*Trajectory {
	out := make([]*Trajectory, len(b.cols))
	for i, c := range b.cols {
		pts := c.ToPoints(make([]Point, 0, c.Len()))
		if !pointsSorted(pts) {
			sort.SliceStable(pts, func(a, b int) bool { return pts[a].T < pts[b].T })
		}
		out[i] = &Trajectory{ID: b.ids[i], Points: pts}
	}
	return out
}
