package uquery

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sidq/internal/geo"
)

func TestGaussianObjectProbInRect(t *testing.T) {
	g := GaussianObject{ID: "g", Mean: geo.Pt(0, 0), Sigma: 10}
	// Full plane ~ 1.
	if p := g.ProbInRect(geo.RectFromCenter(geo.Pt(0, 0), 1000, 1000)); math.Abs(p-1) > 1e-6 {
		t.Fatalf("full plane prob = %v", p)
	}
	// Half plane ~ 0.5.
	half := geo.Rect{Min: geo.Pt(0, -1000), Max: geo.Pt(1000, 1000)}
	if p := g.ProbInRect(half); math.Abs(p-0.5) > 1e-3 {
		t.Fatalf("half plane prob = %v", p)
	}
	// Far rect ~ 0.
	if p := g.ProbInRect(geo.RectFromCenter(geo.Pt(1000, 1000), 10, 10)); p > 1e-6 {
		t.Fatalf("far prob = %v", p)
	}
	// Zero sigma degenerates to point membership.
	z := GaussianObject{ID: "z", Mean: geo.Pt(5, 5), Sigma: 0}
	if z.ProbInRect(geo.RectFromCenter(geo.Pt(5, 5), 1, 1)) != 1 {
		t.Fatal("zero sigma inside")
	}
	if z.ProbInRect(geo.RectFromCenter(geo.Pt(50, 50), 1, 1)) != 0 {
		t.Fatal("zero sigma outside")
	}
	if g.ProbInRect(geo.EmptyRect()) != 0 {
		t.Fatal("empty rect prob")
	}
}

func TestGaussianExpectedDistMonotone(t *testing.T) {
	g := GaussianObject{Mean: geo.Pt(0, 0), Sigma: 5}
	if g.ExpectedDist(geo.Pt(10, 0)) >= g.ExpectedDist(geo.Pt(100, 0)) {
		t.Fatal("expected distance not monotone in true distance")
	}
	// At the mean, E[dist] ~ sigma * sqrt(2).
	if got := g.ExpectedDist(geo.Pt(0, 0)); math.Abs(got-5*math.Sqrt2) > 1e-9 {
		t.Fatalf("at-mean expected dist = %v", got)
	}
}

func TestDiscreteObject(t *testing.T) {
	d := NewDiscreteObject("d", []WeightedSample{
		{Pos: geo.Pt(0, 0), W: 3},
		{Pos: geo.Pt(10, 0), W: 1},
	})
	// Weights normalized.
	if p := d.ProbInRect(geo.RectFromCenter(geo.Pt(0, 0), 1, 1)); math.Abs(p-0.75) > 1e-9 {
		t.Fatalf("prob = %v", p)
	}
	if ed := d.ExpectedDist(geo.Pt(0, 0)); math.Abs(ed-2.5) > 1e-9 {
		t.Fatalf("expected dist = %v", ed)
	}
	b := d.Bounds()
	if !b.Contains(geo.Pt(0, 0)) || !b.Contains(geo.Pt(10, 0)) {
		t.Fatal("bounds")
	}
}

func makeFleet(n int, sigma float64, seed int64) ([]UncertainObject, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]UncertainObject, n)
	truth := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		truth[i] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		mean := truth[i].Add(geo.Pt(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma))
		objs[i] = GaussianObject{ID: fmt.Sprintf("o%d", i), Mean: mean, Sigma: sigma}
	}
	return objs, truth
}

func TestProbRangePrunesAndAnswers(t *testing.T) {
	objs, truth := makeFleet(500, 5, 1)
	rect := geo.RectFromCenter(geo.Pt(500, 500), 150, 150)
	res, st := ProbRange(objs, rect, 0.5)
	if st.Pruned == 0 {
		t.Fatal("no pruning on a selective query")
	}
	if st.Pruned+st.Refined != st.Candidates {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	// Evaluate against ground truth: high-probability answers should
	// mostly be truly inside.
	inTruth := map[string]bool{}
	for i, p := range truth {
		if rect.Contains(p) {
			inTruth[fmt.Sprintf("o%d", i)] = true
		}
	}
	correct := 0
	for _, r := range res {
		if inTruth[r.ID] {
			correct++
		}
	}
	if len(res) == 0 || float64(correct)/float64(len(res)) < 0.8 {
		t.Fatalf("precision vs truth = %d/%d", correct, len(res))
	}
	// Results sorted by probability.
	for i := 1; i < len(res); i++ {
		if res[i].Prob > res[i-1].Prob {
			t.Fatal("results not sorted")
		}
	}
}

func TestProbRangeThresholdMonotone(t *testing.T) {
	objs, _ := makeFleet(300, 8, 2)
	rect := geo.RectFromCenter(geo.Pt(400, 600), 120, 120)
	lo, _ := ProbRange(objs, rect, 0.2)
	hi, _ := ProbRange(objs, rect, 0.8)
	if len(hi) > len(lo) {
		t.Fatal("higher threshold returned more objects")
	}
}

func TestProbKNNMatchesBruteForce(t *testing.T) {
	objs, _ := makeFleet(300, 5, 3)
	q := geo.Pt(500, 500)
	res, st := ProbKNN(objs, q, 10)
	if len(res) != 10 {
		t.Fatalf("results = %d", len(res))
	}
	// Brute force expected distances.
	type ed struct {
		id string
		d  float64
	}
	var all []ed
	for _, o := range objs {
		all = append(all, ed{o.ObjectID(), o.ExpectedDist(q)})
	}
	for i := 0; i < 10; i++ {
		min := i
		for j := i + 1; j < len(all); j++ {
			if all[j].d < all[min].d {
				min = j
			}
		}
		all[i], all[min] = all[min], all[i]
		if math.Abs(res[i].ExpectedDist-all[i].d) > 1e-9 {
			t.Fatalf("rank %d: %v vs brute %v", i, res[i].ExpectedDist, all[i].d)
		}
	}
	if st.Pruned == 0 {
		t.Fatal("kNN should prune distant objects")
	}
	if got, _ := ProbKNN(objs, q, 0); got != nil {
		t.Fatal("k=0")
	}
}

func TestPrismFeasibilityAndMembership(t *testing.T) {
	pr := Prism{P1: geo.Pt(0, 0), P2: geo.Pt(100, 0), T1: 0, T2: 20, VMax: 10}
	if !pr.Feasible() {
		t.Fatal("feasible prism rejected")
	}
	// Midpoint at mid time is reachable.
	if !pr.PossibleAt(geo.Pt(50, 0), 10) {
		t.Fatal("midpoint should be possible")
	}
	// A detour 60 m off-path at mid time needs 2*sqrt(50^2+60^2) > 156 m
	// of travel but only 200 m budget: possible.
	if !pr.PossibleAt(geo.Pt(50, 60), 10) {
		t.Fatal("near detour should be possible")
	}
	// 90 m off-path needs 2*sqrt(50^2+90^2) ≈ 206 m > 200: impossible.
	if pr.PossibleAt(geo.Pt(50, 90), 10) {
		t.Fatal("far detour should be impossible")
	}
	// Outside the time interval.
	if pr.PossibleAt(geo.Pt(50, 0), 25) {
		t.Fatal("outside time window")
	}
	// Infeasible prism.
	bad := Prism{P1: geo.Pt(0, 0), P2: geo.Pt(1000, 0), T1: 0, T2: 10, VMax: 1}
	if bad.Feasible() || bad.PossibleAt(geo.Pt(500, 0), 5) {
		t.Fatal("infeasible prism accepted")
	}
}

func TestPrismIntersectsRect(t *testing.T) {
	pr := Prism{P1: geo.Pt(0, 0), P2: geo.Pt(100, 0), T1: 0, T2: 20, VMax: 10}
	// A rect straddling the path at mid time.
	if !pr.IntersectsRectAt(geo.RectFromCenter(geo.Pt(50, 0), 10, 10), 10) {
		t.Fatal("on-path rect rejected")
	}
	// A rect far off-path.
	if pr.IntersectsRectAt(geo.RectFromCenter(geo.Pt(50, 200), 10, 10), 10) {
		t.Fatal("far rect accepted")
	}
	// A rect reachable by one disk but not the other (alibi query shape).
	if pr.IntersectsRectAt(geo.RectFromCenter(geo.Pt(-60, 0), 5, 5), 12) {
		t.Fatal("one-sided rect accepted")
	}
	// Rect containing the whole lens.
	if !pr.IntersectsRectAt(geo.RectFromCenter(geo.Pt(50, 0), 500, 500), 10) {
		t.Fatal("containing rect rejected")
	}
}

func TestMarkovGridBetween(t *testing.T) {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(200, 100)}
	m := NewMarkovGrid(region, 5)
	p1, p2 := geo.Pt(20, 50), geo.Pt(180, 50)
	dist := m.Between(p1, 0, p2, 40, 4, 20)
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution mass = %v", sum)
	}
	// The mean should be near the midpoint.
	mean := m.MeanOf(dist)
	if mean.Dist(geo.Pt(100, 50)) > 15 {
		t.Fatalf("between mean = %v", mean)
	}
	// Asymmetric query time shifts the mean toward the nearer fix.
	early := m.MeanOf(m.Between(p1, 0, p2, 40, 4, 8))
	if early.X >= mean.X {
		t.Fatalf("early mean %v should be left of mid mean %v", early, mean)
	}
	// Range probability concentrates around the midpoint at mid time.
	pMid := m.RangeProb(dist, geo.RectFromCenter(geo.Pt(100, 50), 30, 30))
	pFar := m.RangeProb(dist, geo.RectFromCenter(geo.Pt(20, 90), 10, 10))
	if pMid <= pFar {
		t.Fatalf("mid prob %v <= far prob %v", pMid, pFar)
	}
	// Out-of-window time yields zero mass.
	zero := m.Between(p1, 0, p2, 40, 4, 50)
	for _, p := range zero {
		if p != 0 {
			t.Fatal("out-of-window mass")
		}
	}
}

func TestSafeRegionMonitorCorrectAndSaving(t *testing.T) {
	query := geo.Rect{Min: geo.Pt(400, 400), Max: geo.Pt(600, 600)}
	m := NewSafeRegionMonitor(query)
	rng := rand.New(rand.NewSource(4))
	// Objects random-walk; verify result set correctness at every tick
	// against ground truth for the objects' *reported* semantics:
	// whenever an object communicates, membership is exact.
	type obj struct {
		id  string
		pos geo.Point
	}
	objs := make([]obj, 40)
	for i := range objs {
		objs[i] = obj{fmt.Sprintf("o%d", i), geo.Pt(rng.Float64()*1000, rng.Float64()*1000)}
	}
	for tick := 0; tick < 200; tick++ {
		for i := range objs {
			objs[i].pos = objs[i].pos.Add(geo.Pt(rng.NormFloat64()*3, rng.NormFloat64()*3))
			m.Update(objs[i].id, objs[i].pos)
		}
		// Safe-region invariant: every object's true membership equals
		// its reported membership (the region never crosses the boundary).
		reported := map[string]bool{}
		for _, id := range m.Result() {
			reported[id] = true
		}
		for _, o := range objs {
			if query.Contains(o.pos) != reported[o.id] {
				t.Fatalf("tick %d: membership wrong for %s", tick, o.id)
			}
		}
	}
	frac, reports, updates := m.Savings()
	if updates != 8000 {
		t.Fatalf("updates = %d", updates)
	}
	if frac < 0.5 {
		t.Fatalf("savings = %v (reports %d)", frac, reports)
	}
}

func TestStreamRangeCounter(t *testing.T) {
	query := geo.RectFromCenter(geo.Pt(50, 50), 25, 25)
	c := NewStreamRangeCounter(query, 10, 5)
	// Two objects inside during window [0,10); one outside; a late
	// disordered event still lands correctly.
	var all []WindowCount
	push := func(t float64, ev PointEvent) { all = append(all, c.Push(t, ev)...) }
	push(1, PointEvent{ID: "a", Pos: geo.Pt(50, 50)})
	push(3, PointEvent{ID: "b", Pos: geo.Pt(60, 60)})
	push(2, PointEvent{ID: "c", Pos: geo.Pt(500, 500)}) // outside
	push(4, PointEvent{ID: "a", Pos: geo.Pt(51, 51)})   // duplicate id
	push(12, PointEvent{ID: "a", Pos: geo.Pt(50, 50)})
	push(11, PointEvent{ID: "b", Pos: geo.Pt(50, 50)}) // disordered but within lateness
	all = append(all, c.Flush()...)
	if len(all) < 2 {
		t.Fatalf("windows = %d", len(all))
	}
	if all[0].Count != 2 {
		t.Fatalf("window0 count = %d (want a,b)", all[0].Count)
	}
	if all[1].Count != 2 {
		t.Fatalf("window1 count = %d", all[1].Count)
	}
	if c.Late() != 0 {
		t.Fatalf("late = %d", c.Late())
	}
}

func TestStreamRangeCounterDropsVeryLate(t *testing.T) {
	c := NewStreamRangeCounter(geo.RectFromCenter(geo.Pt(0, 0), 10, 10), 10, 2)
	c.Push(100, PointEvent{ID: "a", Pos: geo.Pt(0, 0)})
	c.Push(10, PointEvent{ID: "b", Pos: geo.Pt(0, 0)}) // far beyond lateness
	c.Flush()
	if c.Late() != 1 {
		t.Fatalf("late = %d", c.Late())
	}
}

// TestDistStoreMatchesSingleNode holds every Range answer to a scan of
// everything inserted, exactly and in id order: points inside and
// outside the bounds, rects inside, across partition borders, on them,
// and wholly outside the bounds.
func TestDistStoreMatchesSingleNode(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	store := NewDistStore(bounds, 4, 4, 4)
	defer store.Close()
	rng := rand.New(rand.NewSource(5))
	entries := make([]PointEvent, 2000)
	for i := range entries {
		entries[i] = PointEvent{
			ID:  fmt.Sprintf("p%04d", i),
			Pos: geo.Pt(rng.Float64()*1400-200, rng.Float64()*1400-200),
		}
	}
	entries = append(entries, PointEvent{ID: "out", Pos: geo.Pt(-100, 200)})
	if err := store.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	rects := []geo.Rect{
		geo.RectFromCenter(geo.Pt(-100, 200), 10, 10),    // around the outside point only
		geo.RectFromCenter(geo.Pt(1300, 1300), 90, 90),   // beyond the far corner
		geo.RectFromCenter(geo.Pt(500, -150), 400, 40),   // below the bounds, across columns
		geo.RectFromCenter(geo.Pt(250, 500), 30, 300),    // across a partition border
		{Min: geo.Pt(250, 250), Max: geo.Pt(500, 500)},   // on partition borders
		{Min: geo.Pt(-1e6, -1e6), Max: geo.Pt(1e6, 1e6)}, // everything
		{Min: geo.Pt(10, 10), Max: geo.Pt(5, 5)},         // empty
	}
	for trial := 0; trial < 40; trial++ {
		rects = append(rects, geo.RectFromCenter(
			geo.Pt(rng.Float64()*1800-400, rng.Float64()*1800-400),
			rng.Float64()*200, rng.Float64()*200,
		))
	}
	for _, rect := range rects {
		got, err := store.Range(rect)
		if err != nil {
			t.Fatal(err)
		}
		var want []PointEvent
		for _, e := range entries {
			if rect.Contains(e.Pos) {
				want = append(want, e)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("range %v: %d points %v, scan %d %v", rect, len(got), got, len(want), want)
		}
	}
}

func TestDistStoreClosedSubmit(t *testing.T) {
	store := NewDistStore(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}, 2, 2, 2)
	store.Close()
	store.Close() // idempotent
	if err := store.InsertBatch([]PointEvent{{ID: "x", Pos: geo.Pt(1, 1)}}); err == nil {
		t.Fatal("insert after close should error")
	}
}
