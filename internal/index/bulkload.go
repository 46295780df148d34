package index

import (
	"math"
	"sort"

	"sidq/internal/geo"
)

// BulkLoadRTree builds an R-tree from a static entry set with the
// Sort-Tile-Recursive (STR) packing algorithm: entries are sorted into
// vertical tiles by center X, each tile sorted by center Y, and leaves
// packed to capacity. STR trees have near-minimal overlap and are the
// standard choice for read-mostly workloads like historical SID.
//
// The STR sorts use a total order (center X, then Y, then ID, then
// rect coordinates), so the packed tree is a pure function of the
// entry multiset — any permutation of entries yields the identical
// tree.
func BulkLoadRTree(entries []RectEntry) *RTree {
	t := NewRTree()
	if len(entries) == 0 {
		return t
	}
	level := strPackLeaves(entries)
	for len(level) > 1 {
		level = strPackNodes(level)
	}
	t.root = level[0]
	t.count = len(entries)
	return t
}

// rectEntryLessX is the total order for the STR X pass: center X, with
// center Y, ID, and the rect coordinates breaking ties so no two
// distinct entries ever compare equal.
func rectEntryLessX(a, b RectEntry) bool {
	ca, cb := a.Rect.Center(), b.Rect.Center()
	if ca.X != cb.X {
		return ca.X < cb.X
	}
	if ca.Y != cb.Y {
		return ca.Y < cb.Y
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return rectLess(a.Rect, b.Rect)
}

// rectEntryLessY is the total order for the per-tile Y pass.
func rectEntryLessY(a, b RectEntry) bool {
	ca, cb := a.Rect.Center(), b.Rect.Center()
	if ca.Y != cb.Y {
		return ca.Y < cb.Y
	}
	if ca.X != cb.X {
		return ca.X < cb.X
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return rectLess(a.Rect, b.Rect)
}

func rectLess(a, b geo.Rect) bool {
	if a.Min.X != b.Min.X {
		return a.Min.X < b.Min.X
	}
	if a.Min.Y != b.Min.Y {
		return a.Min.Y < b.Min.Y
	}
	if a.Max.X != b.Max.X {
		return a.Max.X < b.Max.X
	}
	return a.Max.Y < b.Max.Y
}

func strPackLeaves(entries []RectEntry) []*rtreeNode {
	sorted := append([]RectEntry(nil), entries...)
	n := len(sorted)
	leafCount := (n + rtreeMaxEntries - 1) / rtreeMaxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlice := sliceCount * rtreeMaxEntries
	sort.Slice(sorted, func(i, j int) bool { return rectEntryLessX(sorted[i], sorted[j]) })
	var leaves []*rtreeNode
	for lo := 0; lo < n; lo += perSlice {
		hi := lo + perSlice
		if hi > n {
			hi = n
		}
		slice := sorted[lo:hi]
		sort.Slice(slice, func(i, j int) bool { return rectEntryLessY(slice[i], slice[j]) })
		for s := 0; s < len(slice); s += rtreeMaxEntries {
			e := s + rtreeMaxEntries
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &rtreeNode{leaf: true, rect: geo.EmptyRect()}
			for _, ent := range slice[s:e] {
				leaf.entries = append(leaf.entries, ent)
				leaf.rect = leaf.rect.Union(ent.Rect)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func strPackNodes(children []*rtreeNode) []*rtreeNode {
	n := len(children)
	nodeCount := (n + rtreeMaxEntries - 1) / rtreeMaxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlice := sliceCount * rtreeMaxEntries
	sorted := append([]*rtreeNode(nil), children...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].rect.Center().X < sorted[j].rect.Center().X
	})
	var out []*rtreeNode
	for lo := 0; lo < n; lo += perSlice {
		hi := lo + perSlice
		if hi > n {
			hi = n
		}
		slice := sorted[lo:hi]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].rect.Center().Y < slice[j].rect.Center().Y
		})
		for s := 0; s < len(slice); s += rtreeMaxEntries {
			e := s + rtreeMaxEntries
			if e > len(slice) {
				e = len(slice)
			}
			node := &rtreeNode{rect: geo.EmptyRect()}
			for _, c := range slice[s:e] {
				node.children = append(node.children, c)
				node.rect = node.rect.Union(c.rect)
			}
			out = append(out, node)
		}
	}
	return out
}
