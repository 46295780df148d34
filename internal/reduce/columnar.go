package reduce

import (
	"math"
	"sync"

	"sidq/internal/trajectory"
)

// keepPool recycles the keep-flag buffer DouglasPeuckerSEDCols needs per
// call; compression sweeps run it across every trajectory at many
// epsilons, so the buffer is hot.
var keepPool = sync.Pool{New: func() any { return new([]bool) }}

func getKeep(n int) *[]bool {
	p := keepPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	for i := range *p {
		(*p)[i] = false
	}
	return p
}

// stackPool recycles the interval stack of the iterative
// Douglas-Peucker.
var stackPool = sync.Pool{New: func() any { return new([][2]int) }}

// DouglasPeuckerSEDCols is the DouglasPeuckerSED kernel: the TD-TR
// simplifier over flat T/X/Y slices, driven by an explicit interval
// stack. Each interval is examined independently, so traversal order
// cannot change which points are kept, and the SED arithmetic is the
// same expression sequence as trajectory.SED — output is bit-identical
// to the recursive []Point reference (reference_test.go; the goldens
// and the property tests pin it). dst's capacity is reused.
func DouglasPeuckerSEDCols(dst, c *trajectory.Columns, eps float64) {
	n := c.Len()
	dst.Reset()
	if n == 0 {
		return
	}
	ts, xs, ys := c.T, c.X, c.Y
	if n <= 2 || eps <= 0 {
		dst.Grow(n)
		for i := 0; i < n; i++ {
			dst.Append(ts[i], xs[i], ys[i])
		}
		return
	}
	keepP := getKeep(n)
	defer keepPool.Put(keepP)
	keep := *keepP
	keep[0], keep[n-1] = true, true
	stackP := stackPool.Get().(*[][2]int)
	stack := (*stackP)[:0]
	stack = append(stack, [2]int{0, n - 1})
	for len(stack) > 0 {
		iv := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := iv[0], iv[1]
		if hi-lo < 2 {
			continue
		}
		at, ax, ay := ts[lo], xs[lo], ys[lo]
		bt, bx, by := ts[hi], xs[hi], ys[hi]
		den := bt - at
		dbx, dby := bx-ax, by-ay
		worst, worstI := 0.0, -1
		if bt == at {
			// Degenerate chord: SED falls back to distance from a.
			for i := lo + 1; i < hi; i++ {
				if d := math.Hypot(xs[i]-ax, ys[i]-ay); d > worst {
					worst, worstI = d, i
				}
			}
		} else {
			for i := lo + 1; i < hi; i++ {
				f := (ts[i] - at) / den
				ex := ax + dbx*f
				ey := ay + dby*f
				if d := math.Hypot(xs[i]-ex, ys[i]-ey); d > worst {
					worst, worstI = d, i
				}
			}
		}
		if worst > eps {
			keep[worstI] = true
			stack = append(stack, [2]int{lo, worstI}, [2]int{worstI, hi})
		}
	}
	*stackP = stack[:0]
	stackPool.Put(stackP)
	dst.Grow(n)
	for i, k := range keep {
		if k {
			dst.Append(ts[i], xs[i], ys[i])
		}
	}
}
