package index

import (
	"sidq/internal/geo"
)

// RectEntry is a rectangle payload stored in an R-tree.
type RectEntry struct {
	ID   string
	Rect geo.Rect
}

const (
	rtreeMaxEntries = 16
	rtreeMinEntries = 4
)

// RTree is an in-memory R-tree with quadratic split, indexing
// rectangles (points are degenerate rectangles).
type RTree struct {
	root  *rtreeNode
	count int
}

type rtreeNode struct {
	leaf     bool
	rect     geo.Rect
	entries  []RectEntry  // leaf payloads
	children []*rtreeNode // internal children
}

// NewRTree returns an empty R-tree.
func NewRTree() *RTree {
	return &RTree{root: &rtreeNode{leaf: true, rect: geo.EmptyRect()}}
}

// Len returns the number of stored entries.
func (t *RTree) Len() int { return t.count }

// Insert adds an entry.
func (t *RTree) Insert(e RectEntry) {
	t.count++
	// Descend to the best leaf, remembering the path so overflow splits
	// can propagate upward without parent pointers.
	path := []*rtreeNode{t.root}
	n := t.root
	for !n.leaf {
		var best *rtreeNode
		bestGrowth, bestArea := 0.0, 0.0
		for _, c := range n.children {
			growth := c.rect.Union(e.Rect).Area() - c.rect.Area()
			if best == nil || growth < bestGrowth ||
				(growth == bestGrowth && c.rect.Area() < bestArea) {
				best, bestGrowth, bestArea = c, growth, c.rect.Area()
			}
		}
		n = best
		path = append(path, n)
	}
	n.entries = append(n.entries, e)
	// Walk the path bottom-up: refresh rects and split overflowing nodes.
	for i := len(path) - 1; i >= 0; i-- {
		node := path[i]
		node.rect = node.rect.Union(e.Rect)
		if len(node.entries) <= rtreeMaxEntries && len(node.children) <= rtreeMaxEntries {
			continue
		}
		a, b := splitNode(node)
		if i == 0 {
			t.root = &rtreeNode{
				rect:     a.rect.Union(b.rect),
				children: []*rtreeNode{a, b},
			}
			return
		}
		parent := path[i-1]
		for j, c := range parent.children {
			if c == node {
				parent.children[j] = a
				break
			}
		}
		parent.children = append(parent.children, b)
	}
}

// splitNode splits an overfull node using the quadratic algorithm and
// returns the two replacement nodes.
func splitNode(n *rtreeNode) (*rtreeNode, *rtreeNode) {
	if n.leaf {
		ra, rb := quadraticSplit(len(n.entries),
			func(i int) geo.Rect { return n.entries[i].Rect })
		a := &rtreeNode{leaf: true, rect: geo.EmptyRect()}
		b := &rtreeNode{leaf: true, rect: geo.EmptyRect()}
		for _, i := range ra {
			a.entries = append(a.entries, n.entries[i])
			a.rect = a.rect.Union(n.entries[i].Rect)
		}
		for _, i := range rb {
			b.entries = append(b.entries, n.entries[i])
			b.rect = b.rect.Union(n.entries[i].Rect)
		}
		return a, b
	}
	ra, rb := quadraticSplit(len(n.children),
		func(i int) geo.Rect { return n.children[i].rect })
	a := &rtreeNode{rect: geo.EmptyRect()}
	b := &rtreeNode{rect: geo.EmptyRect()}
	for _, i := range ra {
		a.children = append(a.children, n.children[i])
		a.rect = a.rect.Union(n.children[i].rect)
	}
	for _, i := range rb {
		b.children = append(b.children, n.children[i])
		b.rect = b.rect.Union(n.children[i].rect)
	}
	return a, b
}

// quadraticSplit partitions indices [0,n) into two groups using
// Guttman's quadratic seed/pick-next heuristic.
func quadraticSplit(n int, rectOf func(int) geo.Rect) (groupA, groupB []int) {
	// Pick seeds: the pair wasting the most area if grouped.
	seedA, seedB, worst := 0, 1, -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			waste := rectOf(i).Union(rectOf(j)).Area() - rectOf(i).Area() - rectOf(j).Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	groupA = []int{seedA}
	groupB = []int{seedB}
	rectA, rectB := rectOf(seedA), rectOf(seedB)
	assigned := make([]bool, n)
	assigned[seedA], assigned[seedB] = true, true
	remaining := n - 2
	for remaining > 0 {
		// Force-assign if one group must take the rest to meet the minimum.
		if len(groupA)+remaining == rtreeMinEntries {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groupA = append(groupA, i)
					rectA = rectA.Union(rectOf(i))
					assigned[i] = true
				}
			}
			return groupA, groupB
		}
		if len(groupB)+remaining == rtreeMinEntries {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groupB = append(groupB, i)
					rectB = rectB.Union(rectOf(i))
					assigned[i] = true
				}
			}
			return groupA, groupB
		}
		// Pick the entry with the greatest preference difference.
		pick, pickDiff, pickToA := -1, -1.0, false
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			dA := rectA.Union(rectOf(i)).Area() - rectA.Area()
			dB := rectB.Union(rectOf(i)).Area() - rectB.Area()
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > pickDiff {
				pick, pickDiff, pickToA = i, diff, dA < dB
			}
		}
		if pickToA {
			groupA = append(groupA, pick)
			rectA = rectA.Union(rectOf(pick))
		} else {
			groupB = append(groupB, pick)
			rectB = rectB.Union(rectOf(pick))
		}
		assigned[pick] = true
		remaining--
	}
	return groupA, groupB
}

// Search returns all entries whose rectangle intersects query.
func (t *RTree) Search(query geo.Rect) []RectEntry {
	var out []RectEntry
	t.search(t.root, query, &out)
	return out
}

func (t *RTree) search(n *rtreeNode, query geo.Rect, out *[]RectEntry) {
	if !n.rect.Intersects(query) {
		return
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Rect.Intersects(query) {
				*out = append(*out, e)
			}
		}
		return
	}
	for _, c := range n.children {
		t.search(c, query, out)
	}
}
