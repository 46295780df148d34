package roadnet

// nodeHeap is a typed index-based binary min-heap over (node, priority)
// pairs — the replacement for the old container/heap nodePQ. Items are
// stored inline (no interface{} boxing), so Push/Pop allocate nothing
// once the backing array has grown to the search's high-water mark.
//
// The sift-up/sift-down order replicates container/heap exactly
// (same strict-less comparisons, same swap sequence), so searches that
// break distance ties by pop order produce byte-identical paths to the
// legacy implementation.
type nodeHeap struct {
	items []heapItem
}

type heapItem struct {
	node int32
	prio float64
}

func (h *nodeHeap) reset() { h.items = h.items[:0] }

func (h *nodeHeap) len() int { return len(h.items) }

func (h *nodeHeap) less(i, j int) bool { return h.items[i].prio < h.items[j].prio }

func (h *nodeHeap) swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// push adds an item and restores the heap property.
func (h *nodeHeap) push(node int32, prio float64) {
	h.items = append(h.items, heapItem{node: node, prio: prio})
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum item.
func (h *nodeHeap) pop() heapItem {
	n := len(h.items) - 1
	h.swap(0, n)
	h.down(0, n)
	it := h.items[n]
	h.items = h.items[:n]
	return it
}

func (h *nodeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *nodeHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2, right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
}
