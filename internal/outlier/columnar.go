package outlier

import (
	"math"
	"sync"

	"sidq/internal/stats"
	"sidq/internal/trajectory"
)

// This file holds the trajectory-point detector kernels. They consume
// trajectory.Columns — flat T/X/Y float64 slices — with reusable
// flag/feature buffers and batch precomputation of per-segment speeds;
// the []Point entry points in trajectory_or.go convert through pooled
// Columns and call them. The pre-columnar []Point bodies survive as
// test references (reference_test.go), and the golden fixtures and the
// property tests in columnar_test.go pin bit-identical flags.

// floatPool recycles feature buffers across StatisticalCols calls — the
// detector runs once per trajectory per pipeline attempt, so the
// buffers are the dominant steady-state garbage in cleaning loops.
var floatPool = sync.Pool{New: func() any { return new([]float64) }}

func getFloats(n int) *[]float64 {
	p := floatPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// FlagsInto returns a false-initialized flag slice of length n, reusing
// buf's capacity when possible. Detectors accept a reuse buffer so
// pipeline loops can run allocation-free in steady state.
func FlagsInto(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// SpeedConstraintCols is the SpeedConstraint kernel: it flags samples
// unreachable under maxSpeed using one flat pass that precomputes every
// segment speed once. flags is an optional reuse buffer; the returned
// slice holds the result.
func SpeedConstraintCols(c *trajectory.Columns, maxSpeed float64, flags []bool) []bool {
	n := c.Len()
	flags = FlagsInto(flags, n)
	if n < 3 || maxSpeed <= 0 {
		return flags
	}
	ts, xs, ys := c.T, c.X, c.Y
	segP := getFloats(n - 1)
	defer floatPool.Put(segP)
	seg := *segP
	for i := 1; i < n; i++ {
		dt := ts[i] - ts[i-1]
		if dt <= 0 {
			seg[i-1] = math.Inf(1)
		} else {
			seg[i-1] = math.Hypot(xs[i-1]-xs[i], ys[i-1]-ys[i]) / dt
		}
	}
	skip := func(i, j int) float64 {
		dt := ts[j] - ts[i]
		if dt <= 0 {
			return math.Inf(1)
		}
		return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) / dt
	}
	for i := 1; i < n-1; i++ {
		if seg[i-1] > maxSpeed && seg[i] > maxSpeed && skip(i-1, i+1) <= maxSpeed {
			flags[i] = true
		}
	}
	// Endpoints: flag when the only adjacent segment is impossible and
	// the next interior point is consistent with its own neighbor.
	if seg[0] > maxSpeed && seg[1] <= maxSpeed {
		flags[0] = true
	}
	if seg[n-2] > maxSpeed && seg[n-3] <= maxSpeed {
		flags[n-1] = true
	}
	return flags
}

// StatisticalCols is the Statistical kernel: the window-median
// deviation feature is computed over the flat coordinate slices and
// every scratch buffer (feature, window distances) is pooled. flags is
// an optional reuse buffer.
func StatisticalCols(c *trajectory.Columns, opt StatisticalOptions, flags []bool) []bool {
	n := c.Len()
	flags = FlagsInto(flags, n)
	if n < 5 {
		return flags
	}
	if opt.Window <= 0 {
		opt.Window = 3
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 3.5
	}
	xs, ys := c.X, c.Y
	featP := getFloats(n)
	defer floatPool.Put(featP)
	feat := *featP
	dsP := getFloats(2 * opt.Window)
	defer floatPool.Put(dsP)
	ds := (*dsP)[:0]
	for i := 0; i < n; i++ {
		ds = ds[:0]
		xi, yi := xs[i], ys[i]
		for w := -opt.Window; w <= opt.Window; w++ {
			j := i + w
			if j < 0 || j >= n || j == i {
				continue
			}
			ds = append(ds, math.Hypot(xi-xs[j], yi-ys[j]))
		}
		m, _ := stats.MedianInPlace(ds)
		feat[i] = m
	}
	// Median and MAD over pooled scratch: MedianInPlace on a copy runs
	// the same sort+quantile pipeline as stats.Median/MAD.
	scrP := getFloats(n)
	defer floatPool.Put(scrP)
	scr := *scrP
	copy(scr, feat)
	med, _ := stats.MedianInPlace(scr)
	for i, f := range feat {
		scr[i] = math.Abs(f - med)
	}
	m, _ := stats.MedianInPlace(scr)
	mad := 1.4826 * m
	if mad < 1e-9 {
		mad = 1e-9
	}
	for i, f := range feat {
		if (f-med)/mad > opt.Threshold {
			flags[i] = true
		}
	}
	return flags
}

// RemoveCols compacts c into dst, dropping flagged samples — the Remove
// kernel. dst's capacity is reused.
func RemoveCols(dst, c *trajectory.Columns, flags []bool) {
	dst.Reset()
	n := c.Len()
	dst.Grow(n)
	ts, xs, ys := c.T, c.X, c.Y
	for i := 0; i < n; i++ {
		if i < len(flags) && flags[i] {
			continue
		}
		dst.Append(ts[i], xs[i], ys[i])
	}
}
