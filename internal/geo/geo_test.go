package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(4, 6)
	if d := p.Dist(q); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := p.DistSq(q); d != 25 {
		t.Fatalf("DistSq = %v, want 25", d)
	}
	if got := p.Add(q); got != Pt(5, 8) {
		t.Fatalf("Add = %v", got)
	}
	if got := q.Sub(p); got != Pt(3, 4) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 16 {
		t.Fatalf("Dot = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(2.5, 4) {
		t.Fatalf("Lerp = %v", got)
	}
}

func TestBearing(t *testing.T) {
	almost(t, Pt(0, 0).Bearing(Pt(1, 0)), 0, 1e-12, "east")
	almost(t, Pt(0, 0).Bearing(Pt(0, 1)), math.Pi/2, 1e-12, "north")
	almost(t, Pt(0, 0).Bearing(Pt(-1, 0)), math.Pi, 1e-12, "west")
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if got := s.ClosestPoint(Pt(5, 3)); got != Pt(5, 0) {
		t.Fatalf("mid projection = %v", got)
	}
	if got := s.ClosestPoint(Pt(-4, 2)); got != Pt(0, 0) {
		t.Fatalf("clamp to A = %v", got)
	}
	if got := s.ClosestPoint(Pt(14, -2)); got != Pt(10, 0) {
		t.Fatalf("clamp to B = %v", got)
	}
	almost(t, s.Dist(Pt(5, 3)), 3, 1e-12, "segment dist")
}

func TestDegenerateSegment(t *testing.T) {
	s := Segment{Pt(2, 2), Pt(2, 2)}
	if got := s.ClosestPoint(Pt(5, 6)); got != Pt(2, 2) {
		t.Fatalf("degenerate closest = %v", got)
	}
	almost(t, s.Dist(Pt(5, 6)), 5, 1e-12, "degenerate dist")
	if s.Length() != 0 {
		t.Fatalf("length = %v", s.Length())
	}
}

func TestSegmentDistNonNegativeAndTriangle(t *testing.T) {
	bound := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Segment{Pt(bound(ax), bound(ay)), Pt(bound(bx), bound(by))}
		p := Pt(bound(px), bound(py))
		d := s.Dist(p)
		// Distance to the segment is never negative and never exceeds
		// the distance to either endpoint.
		return d >= 0 && d <= p.Dist(s.A)+1e-9 && d <= p.Dist(s.B)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectFromPoints(Pt(0, 0), Pt(10, 5))
	if r.Width() != 10 || r.Height() != 5 || r.Area() != 50 {
		t.Fatalf("dims: %v %v %v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(5, 2.5) {
		t.Fatalf("center = %v", r.Center())
	}
	if !r.Contains(Pt(10, 5)) || !r.Contains(Pt(0, 0)) || r.Contains(Pt(10.01, 5)) {
		t.Fatalf("contains boundary behaviour wrong")
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 {
		t.Fatal("empty rect area/width nonzero")
	}
	r := RectFromPoints(Pt(1, 1), Pt(2, 2))
	if got := e.Union(r); got != r {
		t.Fatalf("empty union identity: %v", got)
	}
	if got := r.Union(e); got != r {
		t.Fatalf("union with empty: %v", got)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Fatal("empty intersects")
	}
	if e.Contains(Pt(0, 0)) {
		t.Fatal("empty contains point")
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{Pt(0, 0), Pt(10, 10)}
	b := Rect{Pt(5, 5), Pt(15, 15)}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("overlapping rects do not intersect")
	}
	c := Rect{Pt(20, 20), Pt(30, 30)}
	if a.Intersects(c) {
		t.Fatal("disjoint rects intersect")
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(10, 10)}
	almost(t, r.DistToPoint(Pt(5, 5)), 0, 0, "inside")
	almost(t, r.DistToPoint(Pt(13, 14)), 5, 1e-12, "corner")
	almost(t, r.DistToPoint(Pt(5, -3)), 3, 1e-12, "edge")
}

func TestRectExpand(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(10, 10)}
	g := r.Expand(2)
	if g.Min != Pt(-2, -2) || g.Max != Pt(12, 12) {
		t.Fatalf("expand = %v", g)
	}
	if !r.Expand(-6).IsEmpty() {
		t.Fatal("over-shrunk rect should be empty")
	}
}

func TestRectUnionProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := RectFromPoints(Pt(ax, ay), Pt(bx, by))
		s := RectFromPoints(Pt(cx, cy), Pt(dx, dy))
		u := r.Union(s)
		// Union contains both inputs and is commutative.
		return u.ContainsRect(r) && u.ContainsRect(s) && u == s.Union(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolylineLengthAndPointAt(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	almost(t, pl.Length(), 20, 1e-12, "length")
	if got := pl.PointAt(5); got != Pt(5, 0) {
		t.Fatalf("PointAt(5) = %v", got)
	}
	if got := pl.PointAt(15); got != Pt(10, 5) {
		t.Fatalf("PointAt(15) = %v", got)
	}
	if got := pl.PointAt(-1); got != Pt(0, 0) {
		t.Fatalf("PointAt(-1) = %v", got)
	}
	if got := pl.PointAt(99); got != Pt(10, 10) {
		t.Fatalf("PointAt(99) = %v", got)
	}
}

func TestPointNormAndString(t *testing.T) {
	if got := Pt(1, 2).String(); got != "(1.000, 2.000)" {
		t.Fatalf("string = %q", got)
	}
}

func TestRectFromCenterAndPerimeter(t *testing.T) {
	r := RectFromCenter(Pt(5, 5), 2, 3)
	if r.Min != Pt(3, 2) || r.Max != Pt(7, 8) {
		t.Fatalf("rect = %v", r)
	}
}

func TestContainsRectEmptyCases(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(10, 10)}
	if !r.ContainsRect(EmptyRect()) {
		t.Fatal("any rect contains the empty rect")
	}
	if EmptyRect().ContainsRect(r) {
		t.Fatal("empty rect contains nothing non-empty")
	}
}

func TestRectDistEmptyAndExpandEmpty(t *testing.T) {
	if !math.IsInf(EmptyRect().DistToPoint(Pt(0, 0)), 1) {
		t.Fatal("empty dist should be +Inf")
	}
	if !EmptyRect().Expand(5).IsEmpty() {
		t.Fatal("expanding empty stays empty")
	}
}
