package trajectory

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sidq/internal/geo"
)

func line(id string, n int, dt, speed float64) *Trajectory {
	pts := make([]Point, n)
	for i := range pts {
		t := float64(i) * dt
		pts[i] = Point{T: t, Pos: geo.Pt(speed*t, 0)}
	}
	return New(id, pts)
}

func TestNewSortsByTime(t *testing.T) {
	tr := New("a", []Point{
		{T: 2, Pos: geo.Pt(2, 0)},
		{T: 0, Pos: geo.Pt(0, 0)},
		{T: 1, Pos: geo.Pt(1, 0)},
	})
	for i, want := range []float64{0, 1, 2} {
		if tr.Points[i].T != want {
			t.Fatalf("point %d time = %v", i, tr.Points[i].T)
		}
	}
}

// randPoints draws n points whose fields occasionally degenerate to
// NaN, ±Inf or -0.
func randPoints(rng *rand.Rand, n int, withSpecials bool) []Point {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	draw := func() float64 {
		if withSpecials && rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * 1e3
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{T: draw(), Pos: geo.Point{X: draw(), Y: draw()}}
	}
	return pts
}

func bitsEqualPoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) {
			return false
		}
	}
	return true
}

// TestNewFastPathMatchesSort pins New's fast path: on already-ordered
// input it must produce exactly what a copy-then-stable-sort produces,
// and unsorted/NaN input must still be sorted.
func TestNewFastPathMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		pts := randPoints(rng, 1+rng.Intn(40), trial%3 == 0)
		if trial%2 == 0 {
			// Pre-sort (NaNs removed) to exercise the fast path.
			for i := range pts {
				if math.IsNaN(pts[i].T) {
					pts[i].T = float64(i)
				}
			}
			sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
		}
		want := append([]Point(nil), pts...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].T < want[j].T })
		got := New("t", pts)
		if !bitsEqualPoints(got.Points, want) {
			t.Fatalf("trial %d: New output diverged from copy-then-stable-sort", trial)
		}
	}
}

func TestDurationLengthSpeeds(t *testing.T) {
	tr := line("a", 11, 1, 5) // 10 s at 5 m/s
	if tr.Duration() != 10 {
		t.Fatalf("duration = %v", tr.Duration())
	}
	for _, s := range tr.Speeds() {
		if math.Abs(s-5) > 1e-9 {
			t.Fatalf("speed = %v", s)
		}
	}
}

func TestSpeedsBadTimestamps(t *testing.T) {
	tr := &Trajectory{Points: []Point{
		{T: 0, Pos: geo.Pt(0, 0)},
		{T: 0, Pos: geo.Pt(5, 0)},
	}}
	s := tr.Speeds()
	if !math.IsInf(s[0], 1) {
		t.Fatalf("zero-dt speed = %v", s[0])
	}
}

func TestLocationAt(t *testing.T) {
	tr := line("a", 3, 10, 1) // points at t=0,10,20 at x=0,10,20
	p, ok := tr.LocationAt(5)
	if !ok || p != geo.Pt(5, 0) {
		t.Fatalf("LocationAt(5) = %v %v", p, ok)
	}
	if p, _ := tr.LocationAt(-5); p != geo.Pt(0, 0) {
		t.Fatalf("clamp low = %v", p)
	}
	if p, _ := tr.LocationAt(100); p != geo.Pt(20, 0) {
		t.Fatalf("clamp high = %v", p)
	}
	if _, ok := (&Trajectory{}).LocationAt(0); ok {
		t.Fatal("empty trajectory should report !ok")
	}
}

func TestResample(t *testing.T) {
	tr := line("a", 3, 10, 1)
	rs, err := tr.Resample(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Points[0].T != 0 || rs.Points[len(rs.Points)-1].T != 20 {
		t.Fatalf("endpoints: %v..%v", rs.Points[0].T, rs.Points[len(rs.Points)-1].T)
	}
	for _, p := range rs.Points {
		if math.Abs(p.Pos.X-p.T) > 1e-9 {
			t.Fatalf("interpolation wrong at t=%v: %v", p.T, p.Pos)
		}
	}
	if _, err := tr.Resample(0); err == nil {
		t.Fatal("zero interval should error")
	}
	if _, err := (&Trajectory{}).Resample(1); err != ErrTooShort {
		t.Fatalf("want ErrTooShort, got %v", err)
	}
}

// TestResampleBounded pins the output bound: an interval that would
// yield more than MaxResamplePoints samples, or that is below the
// float64 spacing of the timestamps (so t += dt never advances), is
// refused instead of looping.
func TestResampleBounded(t *testing.T) {
	span := New("a", []Point{{T: 0}, {T: 1000, Pos: geo.Pt(10, 10)}})
	if _, err := span.Resample(1000.0 / MaxResamplePoints); err != nil {
		t.Fatalf("interval at the bound refused: %v", err)
	}
	for _, dt := range []float64{0.0001, 1e-300, math.SmallestNonzeroFloat64} {
		if _, err := span.Resample(dt); !errors.Is(err, ErrResampleTooDense) {
			t.Fatalf("dt=%v: want ErrResampleTooDense, got %v", dt, err)
		}
	}
	// Few samples by count, but 1e-3 is below the 0.125 spacing of
	// float64 values near 1e15.
	far := New("far", []Point{{T: 1e15}, {T: 1e15 + 1}})
	if _, err := far.Resample(1e-3); !errors.Is(err, ErrResampleTooDense) {
		t.Fatalf("non-advancing dt: want ErrResampleTooDense, got %v", err)
	}
	inf := New("inf", []Point{{T: 0}, {T: math.Inf(1)}})
	if _, err := inf.Resample(1); !errors.Is(err, ErrResampleTooDense) {
		t.Fatalf("infinite span: want ErrResampleTooDense, got %v", err)
	}
}

func TestThin(t *testing.T) {
	tr := line("a", 10, 1, 1)
	th := tr.Thin(3)
	// Keeps 0,3,6,9 -> 4 points; last original (t=9) already kept.
	if th.Len() != 4 {
		t.Fatalf("thin len = %d", th.Len())
	}
	if th.Points[len(th.Points)-1].T != 9 {
		t.Fatal("last point not preserved")
	}
	tr2 := line("b", 11, 1, 1)
	th2 := tr2.Thin(3) // keeps 0,3,6,9 plus last 10
	if th2.Points[len(th2.Points)-1].T != 10 {
		t.Fatal("last point not appended")
	}
	if got := tr.Thin(1); got.Len() != tr.Len() {
		t.Fatal("k=1 should clone")
	}
}

func TestSliceAndTimeBounds(t *testing.T) {
	tr := line("a", 11, 1, 1)
	s := tr.Slice(2.5, 6.5)
	if s.Len() != 4 { // t=3,4,5,6
		t.Fatalf("slice len = %d", s.Len())
	}
	t0, t1, ok := tr.TimeBounds()
	if !ok || t0 != 0 || t1 != 10 {
		t.Fatalf("bounds %v %v %v", t0, t1, ok)
	}
}

func TestStayPoints(t *testing.T) {
	var pts []Point
	// Move, then dwell 60 s within 5 m, then move on.
	for i := 0; i < 10; i++ {
		pts = append(pts, Point{T: float64(i) * 10, Pos: geo.Pt(float64(i)*50, 0)})
	}
	base := pts[len(pts)-1]
	for i := 1; i <= 6; i++ {
		pts = append(pts, Point{T: base.T + float64(i)*10, Pos: base.Pos.Add(geo.Pt(float64(i%3), 1))})
	}
	for i := 1; i <= 5; i++ {
		pts = append(pts, Point{T: base.T + 60 + float64(i)*10, Pos: base.Pos.Add(geo.Pt(float64(i)*50, 0))})
	}
	tr := New("a", pts)
	sps := tr.StayPoints(10, 30)
	if len(sps) != 1 {
		t.Fatalf("stay points = %d, want 1", len(sps))
	}
	if d := sps[0].End - sps[0].Start; d < 30 {
		t.Fatalf("stay duration = %v", d)
	}
	if d := sps[0].Center.Dist(base.Pos); d > 10 {
		t.Fatalf("stay center off by %v", d)
	}
	if got := tr.StayPoints(10, 3600); len(got) != 0 {
		t.Fatal("impossible min duration should yield none")
	}
}

func TestSED(t *testing.T) {
	a := Point{T: 0, Pos: geo.Pt(0, 0)}
	b := Point{T: 10, Pos: geo.Pt(10, 0)}
	p := Point{T: 5, Pos: geo.Pt(5, 3)}
	if got := SED(a, b, p); math.Abs(got-3) > 1e-12 {
		t.Fatalf("SED = %v", got)
	}
	// Zero-duration chord falls back to distance from a.
	if got := SED(a, Point{T: 0, Pos: geo.Pt(9, 0)}, p); math.Abs(got-math.Hypot(5, 3)) > 1e-12 {
		t.Fatalf("degenerate SED = %v", got)
	}
}

func TestMaxSEDAndPerpendicular(t *testing.T) {
	tr := New("a", []Point{
		{T: 0, Pos: geo.Pt(0, 0)},
		{T: 5, Pos: geo.Pt(5, 4)},
		{T: 10, Pos: geo.Pt(10, 0)},
	})
	if got := MaxSED(tr, 0, 2); math.Abs(got-4) > 1e-12 {
		t.Fatalf("MaxSED = %v", got)
	}
	if MaxSED(tr, 0, 1) != 0 {
		t.Fatal("adjacent MaxSED should be 0")
	}
}

func TestSyncDistance(t *testing.T) {
	a := line("a", 11, 1, 1)
	b := New("b", nil)
	for _, p := range a.Points {
		b.Points = append(b.Points, Point{T: p.T, Pos: p.Pos.Add(geo.Pt(0, 2))})
	}
	if got := SyncDistance(a, b, 21); math.Abs(got-2) > 1e-9 {
		t.Fatalf("SyncDistance = %v", got)
	}
	if !math.IsInf(SyncDistance(a, &Trajectory{}, 5), 1) {
		t.Fatal("empty should be +Inf")
	}
	c := line("c", 5, 1, 1)
	c.Points[0].T += 100 // disjoint span
	for i := range c.Points {
		c.Points[i].T += 100
	}
	if !math.IsInf(SyncDistance(a, New("c", c.Points), 5), 1) {
		t.Fatal("disjoint spans should be +Inf")
	}
}

func TestRMSEAndMeanError(t *testing.T) {
	truth := line("t", 11, 1, 1)
	noisy := truth.Clone()
	for i := range noisy.Points {
		noisy.Points[i].Pos = noisy.Points[i].Pos.Add(geo.Pt(0, 3))
	}
	if got := RMSEAgainst(noisy, truth); math.Abs(got-3) > 1e-9 {
		t.Fatalf("RMSE = %v", got)
	}
	if got := MeanErrorAgainst(noisy, truth); math.Abs(got-3) > 1e-9 {
		t.Fatalf("mean error = %v", got)
	}
	if !math.IsInf(RMSEAgainst(noisy, &Trajectory{}), 1) {
		t.Fatal("empty truth should be +Inf")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := line("veh-1", 5, 1.5, 3)
	b := line("veh-2", 3, 2, 1)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Trajectory{a, b}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVColumns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].ID != "veh-1" || back[1].ID != "veh-2" {
		t.Fatalf("round trip ids: %+v", back)
	}
	for i, p := range back[0].Points {
		if p != a.Points[i] {
			t.Fatalf("point %d mismatch: %v vs %v", i, p, a.Points[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSVColumns(bytes.NewBufferString("nope,this,is,bad\n")); err == nil {
		t.Fatal("bad header should error")
	}
	if _, err := ReadCSVColumns(bytes.NewBufferString("id,t,x,y\na,notanumber,0,0\n")); err == nil {
		t.Fatal("bad float should error")
	}
}

func TestLocationAtInterpolationProperty(t *testing.T) {
	tr := line("a", 50, 1, 2)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		tm := math.Mod(math.Abs(raw), 49)
		p, ok := tr.LocationAt(tm)
		// On a constant-velocity line, interpolation must be exact.
		return ok && math.Abs(p.X-2*tm) < 1e-6 && p.Y == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func makeTraj(id string, start geo.Point, vx, vy, t0 float64, n int, dt float64) *Trajectory {
	pts := make([]Point, n)
	for i := range pts {
		t := t0 + float64(i)*dt
		pts[i] = Point{T: t, Pos: start.Add(geo.Pt(vx*(t-t0), vy*(t-t0)))}
	}
	return New(id, pts)
}

func TestEntersRangeQuery(t *testing.T) {
	// a crosses the query region during [40, 60]; b never does;
	// c is in the region but outside the query time window.
	a := makeTraj("a", geo.Pt(0, 0), 10, 0, 0, 101, 1)    // along x, reaches x=500 at t=50
	b := makeTraj("b", geo.Pt(0, 5000), 10, 0, 0, 101, 1) // far north
	c := makeTraj("c", geo.Pt(450, 0), 10, 0, 200, 21, 1) // in region at t≈205 only
	rect := geo.Rect{Min: geo.Pt(400, -10), Max: geo.Pt(600, 10)}
	query := func(t0, t1 float64) []string {
		var out []string
		for _, tr := range []*Trajectory{a, b, c} {
			if tr.Enters(rect, t0, t1) {
				out = append(out, tr.ID)
			}
		}
		return out
	}
	if got := query(40, 60); len(got) != 1 || got[0] != "a" {
		t.Fatalf("got %v, want [a]", got)
	}
	// Widen the time window to include c.
	if got := query(40, 210); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("got %v, want [a c]", got)
	}
	if query(60, 40) != nil {
		t.Fatal("inverted window should enter nothing")
	}
	if a.Enters(geo.EmptyRect(), 0, 100) {
		t.Fatal("an empty rect should be entered by nothing")
	}
}

func TestEntersBoundaryCrossing(t *testing.T) {
	// A sparse trajectory whose segment crosses the query rect between
	// samples: samples at t=0 (x=0) and t=100 (x=1000); it passes
	// through x=500 at t=50 with no sample nearby.
	tr := New("sparse", []Point{
		{T: 0, Pos: geo.Pt(0, 0)},
		{T: 100, Pos: geo.Pt(1000, 0)},
	})
	rect := geo.RectFromCenter(geo.Pt(500, 0), 20, 20)
	if !tr.Enters(rect, 45, 55) {
		t.Fatal("sparse crossing not found")
	}
	// Time window when the object is elsewhere.
	if tr.Enters(rect, 0, 10) {
		t.Fatal("false positive")
	}
}

func TestSegmentIntersectsRectProperty(t *testing.T) {
	rect := geo.Rect{Min: geo.Pt(-10, -10), Max: geo.Pt(10, 10)}
	f := func(ax, ay, bx, by float64) bool {
		bound := func(v float64) float64 {
			if v != v || v > 1e9 || v < -1e9 {
				return 0
			}
			return v
		}
		pa := geo.Pt(bound(ax), bound(ay))
		pb := geo.Pt(bound(bx), bound(by))
		got := segmentIntersectsRect(pa, pb, rect)
		// Brute force: sample the segment densely.
		want := false
		for i := 0; i <= 200; i++ {
			if rect.Contains(pa.Lerp(pb, float64(i)/200)) {
				want = true
				break
			}
		}
		// Dense sampling can miss grazing intersections that the exact
		// test finds, so only flag the dangerous direction (exact test
		// missing a sampled hit).
		return got || !want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
