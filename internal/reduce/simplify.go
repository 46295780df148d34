// Package reduce implements the paper's §2.2.6 Data Reduction task
// family: trajectory compression (offline and online, raw and
// network-constrained) and STID reduction (lossless codecs, lossy
// error-bounded compression, prediction-based suppression).
//
// Error-bounded trajectory simplifiers guarantee a maximum synchronized
// Euclidean distance (SED) between the original points and the
// simplified trajectory; VerifySED checks the guarantee.
package reduce

import (
	"container/heap"
	"math"
	"sync"

	"sidq/internal/trajectory"
)

// colsPool recycles the struct-of-arrays scratch DouglasPeuckerSED
// converts through on its way to the columnar kernel.
var colsPool = sync.Pool{New: func() any { return new(trajectory.Columns) }}

// DouglasPeuckerSED simplifies offline with the time-aware
// Douglas-Peucker variant (TD-TR): repeatedly keep the point with the
// largest SED until every discarded point is within eps meters of the
// kept chord. The first and last points are always kept. It is the
// trajectory-form entry point of DouglasPeuckerSEDCols.
func DouglasPeuckerSED(tr *trajectory.Trajectory, eps float64) *trajectory.Trajectory {
	src := colsPool.Get().(*trajectory.Columns)
	dst := colsPool.Get().(*trajectory.Columns)
	defer colsPool.Put(src)
	defer colsPool.Put(dst)
	src.FromTrajectory(tr)
	DouglasPeuckerSEDCols(dst, src, eps)
	return dst.Trajectory(tr.ID)
}

// SlidingWindow simplifies online with the opening-window strategy:
// grow a window from the last kept anchor while every interior point
// stays within eps SED of the anchor-to-candidate chord; when the bound
// would break, keep the previous candidate and restart the window.
func SlidingWindow(tr *trajectory.Trajectory, eps float64) *trajectory.Trajectory {
	n := tr.Len()
	out := &trajectory.Trajectory{ID: tr.ID}
	if n == 0 {
		return out
	}
	if n <= 2 || eps <= 0 {
		out.Points = append(out.Points, tr.Points...)
		return out
	}
	out.Points = append(out.Points, tr.Points[0])
	anchor := 0
	for i := 2; i < n; i++ {
		if trajectory.MaxSED(tr, anchor, i) > eps {
			out.Points = append(out.Points, tr.Points[i-1])
			anchor = i - 1
		}
	}
	out.Points = append(out.Points, tr.Points[n-1])
	return out
}

// DeadReckoning simplifies online by transmitting a point only when the
// position extrapolated from the last transmitted point and velocity
// deviates from the actual position by more than eps. It is the
// classic location-update suppression protocol for tracking.
func DeadReckoning(tr *trajectory.Trajectory, eps float64) *trajectory.Trajectory {
	n := tr.Len()
	out := &trajectory.Trajectory{ID: tr.ID}
	if n == 0 {
		return out
	}
	if n <= 2 || eps <= 0 {
		out.Points = append(out.Points, tr.Points...)
		return out
	}
	out.Points = append(out.Points, tr.Points[0])
	lastIdx := 0
	var vx, vy float64
	if dt := tr.Points[1].T - tr.Points[0].T; dt > 0 {
		vx = (tr.Points[1].Pos.X - tr.Points[0].Pos.X) / dt
		vy = (tr.Points[1].Pos.Y - tr.Points[0].Pos.Y) / dt
	}
	for i := 1; i < n; i++ {
		last := tr.Points[lastIdx]
		dt := tr.Points[i].T - last.T
		predX := last.Pos.X + vx*dt
		predY := last.Pos.Y + vy*dt
		dx := tr.Points[i].Pos.X - predX
		dy := tr.Points[i].Pos.Y - predY
		if math.Hypot(dx, dy) > eps {
			out.Points = append(out.Points, tr.Points[i])
			if i > 0 {
				if d := tr.Points[i].T - tr.Points[i-1].T; d > 0 {
					vx = (tr.Points[i].Pos.X - tr.Points[i-1].Pos.X) / d
					vy = (tr.Points[i].Pos.Y - tr.Points[i-1].Pos.Y) / d
				}
			}
			lastIdx = i
		}
	}
	if out.Points[len(out.Points)-1].T != tr.Points[n-1].T {
		out.Points = append(out.Points, tr.Points[n-1])
	}
	return out
}

// squishItem is a buffered point with its removal priority.
type squishItem struct {
	idx      int // index into the original points
	nodeIdx  int // index into the node array
	priority float64
	heapPos  int
}

type squishHeap []*squishItem

func (h squishHeap) Len() int           { return len(h) }
func (h squishHeap) Less(i, j int) bool { return h[i].priority < h[j].priority }
func (h squishHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapPos = i
	h[j].heapPos = j
}
func (h *squishHeap) Push(x interface{}) {
	it := x.(*squishItem)
	it.heapPos = len(*h)
	*h = append(*h, it)
}
func (h *squishHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// SQUISH simplifies online with a bounded buffer (capacity points):
// when the buffer is full, the interior point whose removal introduces
// the least SED is dropped and its priority is inherited by its
// neighbors, following the SQUISH algorithm of Muckell et al.
func SQUISH(tr *trajectory.Trajectory, capacity int) *trajectory.Trajectory {
	n := tr.Len()
	out := &trajectory.Trajectory{ID: tr.ID}
	if capacity < 2 {
		capacity = 2
	}
	if n <= capacity {
		out.Points = append(out.Points, tr.Points...)
		return out
	}
	type node struct {
		item       *squishItem
		prev, next int // node indices, -1 when none, -2 when removed
		inherited  float64
	}
	nodes := make([]node, 0, n)
	h := &squishHeap{}
	setPriority := func(ni int) {
		nd := &nodes[ni]
		if nd.prev < 0 || nd.next < 0 {
			nd.item.priority = math.Inf(1) // endpoints never removed
		} else {
			a := tr.Points[nodes[nd.prev].item.idx]
			b := tr.Points[nodes[nd.next].item.idx]
			nd.item.priority = trajectory.SED(a, b, tr.Points[nd.item.idx]) + nd.inherited
		}
		heap.Fix(h, nd.item.heapPos)
	}
	live := 0
	lastNode := -1
	for i := 0; i < n; i++ {
		it := &squishItem{idx: i, priority: math.Inf(1), nodeIdx: len(nodes)}
		nodes = append(nodes, node{item: it, prev: lastNode, next: -1})
		if lastNode >= 0 {
			nodes[lastNode].next = it.nodeIdx
		}
		heap.Push(h, it)
		if lastNode >= 0 {
			setPriority(lastNode) // previous point now has a successor
		}
		lastNode = it.nodeIdx
		live++
		if live > capacity {
			victim := heap.Pop(h).(*squishItem)
			ri := victim.nodeIdx
			p, x := nodes[ri].prev, nodes[ri].next
			if p >= 0 {
				nodes[p].next = x
			}
			if x >= 0 {
				nodes[x].prev = p
			}
			if p >= 0 {
				nodes[p].inherited = math.Max(nodes[p].inherited, victim.priority)
				setPriority(p)
			}
			if x >= 0 {
				nodes[x].inherited = math.Max(nodes[x].inherited, victim.priority)
				setPriority(x)
			}
			nodes[ri].prev, nodes[ri].next = -2, -2
			live--
		}
	}
	for ni := range nodes {
		if nodes[ni].prev != -2 {
			out.Points = append(out.Points, tr.Points[nodes[ni].item.idx])
		}
	}
	return out
}
