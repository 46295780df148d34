package trajectory

import (
	"math"

	"sidq/internal/geo"
)

// Columns is the struct-of-arrays form of a timestamped point sequence:
// parallel T/X/Y slices instead of a []Point. The hot cleaning kernels
// (speed gate, outlier scans, simplification, motion refinement) run
// their inner loops over these flat slices — one contiguous stream per
// coordinate, no per-point pointer chasing — while conversion to and
// from the []Point form is lossless (NaN and ±Inf coordinates survive
// a round trip bit for bit; the float values are copied, never
// re-derived).
//
// The three slices always have equal length. A Columns value is cheap
// to reuse: Reset keeps capacity, and every From*/append helper grows
// all three slices together.
type Columns struct {
	T, X, Y []float64
}

// Len returns the number of samples.
func (c *Columns) Len() int { return len(c.T) }

// Reset empties the columns, retaining capacity for reuse.
func (c *Columns) Reset() {
	c.T = c.T[:0]
	c.X = c.X[:0]
	c.Y = c.Y[:0]
}

// Grow ensures capacity for at least n additional samples.
func (c *Columns) Grow(n int) {
	if need := len(c.T) + n; cap(c.T) < need {
		t := make([]float64, len(c.T), need)
		x := make([]float64, len(c.X), need)
		y := make([]float64, len(c.Y), need)
		copy(t, c.T)
		copy(x, c.X)
		copy(y, c.Y)
		c.T, c.X, c.Y = t, x, y
	}
}

// Append adds one sample.
func (c *Columns) Append(t, x, y float64) {
	c.T = append(c.T, t)
	c.X = append(c.X, x)
	c.Y = append(c.Y, y)
}

// FromPoints replaces the columns' contents with pts. The receiver's
// capacity is reused when possible, so a pooled Columns converts a
// trajectory without allocating in steady state.
func (c *Columns) FromPoints(pts []Point) {
	n := len(pts)
	c.Reset()
	c.Grow(n)
	c.T = c.T[:n]
	c.X = c.X[:n]
	c.Y = c.Y[:n]
	for i := range pts {
		c.T[i] = pts[i].T
		c.X[i] = pts[i].Pos.X
		c.Y[i] = pts[i].Pos.Y
	}
}

// ToPoints appends the columns' samples to dst in Point form and
// returns it (pass nil to allocate exactly).
func (c *Columns) ToPoints(dst []Point) []Point {
	n := c.Len()
	if cap(dst)-len(dst) < n {
		grown := make([]Point, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		dst = append(dst, Point{T: c.T[i], Pos: geo.Point{X: c.X[i], Y: c.Y[i]}})
	}
	return dst
}

// FromTrajectory fills the columns from tr's points.
func (c *Columns) FromTrajectory(tr *Trajectory) { c.FromPoints(tr.Points) }

// Trajectory materializes the columns as a fresh trajectory with the
// given id.
func (c *Columns) Trajectory(id string) *Trajectory {
	return &Trajectory{ID: id, Points: c.ToPoints(make([]Point, 0, c.Len()))}
}

// Equal reports whether c and o hold bit-identical samples (NaN
// compares equal to NaN here: equality is on the bit pattern of every
// float64, which is what lossless round-tripping means).
func (c *Columns) Equal(o *Columns) bool {
	if c.Len() != o.Len() {
		return false
	}
	eq := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	return eq(c.T, o.T) && eq(c.X, o.X) && eq(c.Y, o.Y)
}

// pointsSorted reports whether pts are in non-decreasing time order —
// one linear pass, the fast-path check New uses to skip the
// copy-then-stable-sort. Equal stamps are in order (a stable sort keeps
// them). NaN stamps report false, explicitly because every comparison
// with NaN is false: such input keeps taking the sorting path, which
// alone reproduces where sort.SliceStable puts a NaN.
func pointsSorted(pts []Point) bool {
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T || math.IsNaN(pts[i].T) {
			return false
		}
	}
	if len(pts) > 0 && math.IsNaN(pts[0].T) {
		return false
	}
	return true
}
