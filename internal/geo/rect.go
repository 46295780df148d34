package geo

import "math"

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
// The zero value is an empty rectangle (see EmptyRect) only if built
// via EmptyRect; prefer the constructors.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns a rectangle that contains nothing and acts as the
// identity for Union.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// RectFromPoints returns the minimal bounding rectangle of pts.
func RectFromPoints(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// RectFromCenter returns a rectangle centered at c with half-extents hx, hy.
func RectFromCenter(c Point, hx, hy float64) Rect {
	return Rect{Min: Point{c.X - hx, c.Y - hy}, Max: Point{c.X + hx, c.Y + hy}}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the X extent (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the Y extent (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle center.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the minimal rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// ExtendPoint returns the minimal rectangle covering r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{Min: p, Max: p})
}

// Expand returns r grown by d on every side. Negative d shrinks.
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	out := Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// DistToPoint returns the minimum distance from p to r, 0 if p is inside.
func (r Rect) DistToPoint(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}
