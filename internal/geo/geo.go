// Package geo provides the planar geometry primitives used by every
// other sidq package: points, segments, rectangles, polylines and
// distance functions.
//
// All computations are in meters in a right-handed X/Y frame.
package geo

import (
	"fmt"
	"math"
)

// Point is a planar point in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by factor s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q. It
// avoids the square root on hot paths such as index scans.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Bearing returns the angle in radians of the vector from p to q,
// measured counter-clockwise from the positive X axis in (-pi, pi].
func (p Point) Bearing(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Segment is a directed planar line segment from A to B.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// ClosestParam returns the clamped parameter t in [0,1] such that
// s.A.Lerp(s.B, t) is the point on the segment closest to p.
func (s Segment) ClosestParam(p Point) float64 {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return clamp01(t)
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	return s.A.Lerp(s.B, s.ClosestParam(p))
}

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// Interpolate returns the point at fraction t of the segment length.
func (s Segment) Interpolate(t float64) Point { return s.A.Lerp(s.B, clamp01(t)) }

func clamp01(t float64) float64 {
	switch {
	case t < 0:
		return 0
	case t > 1:
		return 1
	default:
		return t
	}
}
