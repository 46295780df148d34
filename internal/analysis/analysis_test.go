package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
	"sidq/internal/uquery"
)

// uncertainBlobs builds three well-separated clusters of uncertain
// objects plus scattered noise; returns objects and true labels.
func uncertainBlobs(sigma float64, seed int64) ([]uquery.UncertainObject, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := []geo.Point{{X: 100, Y: 100}, {X: 800, Y: 200}, {X: 400, Y: 800}}
	var objs []uquery.UncertainObject
	var labels []int
	id := 0
	for c, center := range centers {
		for i := 0; i < 40; i++ {
			mean := center.Add(geo.Pt(rng.NormFloat64()*25, rng.NormFloat64()*25))
			objs = append(objs, uquery.GaussianObject{
				ID: fmt.Sprintf("o%d", id), Mean: mean, Sigma: sigma,
			})
			labels = append(labels, c)
			id++
		}
	}
	for i := 0; i < 12; i++ {
		objs = append(objs, uquery.GaussianObject{
			ID:    fmt.Sprintf("n%d", i),
			Mean:  geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Sigma: sigma,
		})
		labels = append(labels, Noise)
		id++
	}
	return objs, labels
}

func TestUncertainDBSCANRecoversBlobs(t *testing.T) {
	objs, truth := uncertainBlobs(5, 1)
	labels := UncertainDBSCAN(objs, 60, 5)
	ari := AdjustedRandIndex(labels, truth)
	if ari < 0.8 {
		t.Fatalf("ARI = %v", ari)
	}
	// Three clusters found.
	clusters := map[int]bool{}
	for _, l := range labels {
		if l != Noise {
			clusters[l] = true
		}
	}
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d", len(clusters))
	}
}

func TestUncertainDBSCANDegradesGracefullyWithUncertainty(t *testing.T) {
	objsLo, truth := uncertainBlobs(2, 2)
	objsHi, _ := uncertainBlobs(60, 2)
	ariLo := AdjustedRandIndex(UncertainDBSCAN(objsLo, 60, 5), truth)
	ariHi := AdjustedRandIndex(UncertainDBSCAN(objsHi, 60, 5), truth)
	if ariHi > ariLo {
		t.Fatalf("more uncertainty should not improve clustering: %v vs %v", ariHi, ariLo)
	}
}

func TestUncertainDBSCANDegenerate(t *testing.T) {
	if got := UncertainDBSCAN(nil, 10, 3); len(got) != 0 {
		t.Fatal("empty input")
	}
	objs, _ := uncertainBlobs(5, 3)
	labels := UncertainDBSCAN(objs, 0, 3)
	for _, l := range labels {
		if l != Noise {
			t.Fatal("eps=0 should yield all noise")
		}
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if got := AdjustedRandIndex(a, a); got != 1 {
		t.Fatalf("self ARI = %v", got)
	}
	// Permuted labels are still a perfect match.
	b := []int{5, 5, 9, 9}
	if got := AdjustedRandIndex(a, b); got != 1 {
		t.Fatalf("relabeled ARI = %v", got)
	}
	// Mismatched lengths.
	if AdjustedRandIndex(a, []int{0}) != 0 {
		t.Fatal("length mismatch")
	}
	// Random labels near zero.
	rng := rand.New(rand.NewSource(4))
	x := make([]int, 2000)
	y := make([]int, 2000)
	for i := range x {
		x[i] = rng.Intn(3)
		y[i] = rng.Intn(3)
	}
	if got := AdjustedRandIndex(x, y); math.Abs(got) > 0.05 {
		t.Fatalf("random ARI = %v", got)
	}
}

func TestStreamAnomalyDetector(t *testing.T) {
	// Normal driving at ~10 m/s with two injected teleports.
	var pts []trajectory.Point
	rng := rand.New(rand.NewSource(5))
	pos := geo.Pt(0, 0)
	for i := 0; i < 300; i++ {
		pos = pos.Add(geo.Pt(10+rng.NormFloat64(), rng.NormFloat64()))
		pts = append(pts, trajectory.Point{T: float64(i), Pos: pos})
	}
	tr := trajectory.New("t", pts)
	tr.Points[150].Pos = tr.Points[150].Pos.Add(geo.Pt(0, 500))
	tr.Points[250].Pos = tr.Points[250].Pos.Add(geo.Pt(400, 0))
	flags := DetectTrajectory(tr, 5)
	if !flags[150] || !flags[250] {
		t.Fatalf("teleports not flagged: %v %v", flags[150], flags[250])
	}
	fp := 0
	for i, f := range flags {
		if f && i != 150 && i != 151 && i != 250 && i != 251 {
			fp++
		}
	}
	if fp > 6 {
		t.Fatalf("false positives = %d", fp)
	}
}

func TestStreamAnomalyNonMonotoneTime(t *testing.T) {
	d := NewStreamAnomalyDetector(4)
	d.Push(trajectory.Point{T: 10, Pos: geo.Pt(0, 0)})
	if !d.Push(trajectory.Point{T: 5, Pos: geo.Pt(1, 0)}) {
		t.Fatal("time reversal should be anomalous")
	}
}

func TestFrequentPairs(t *testing.T) {
	// Sequences dominated by A->B with some uncertainty.
	mk := func(labels ...string) []ProbItem {
		out := make([]ProbItem, len(labels))
		for i, l := range labels {
			out[i] = ProbItem{{Label: l, Prob: 0.8}, {Label: "X", Prob: 0.2}}
		}
		return out
	}
	seqs := [][]ProbItem{
		mk("A", "B", "C"),
		mk("A", "B"),
		mk("A", "B", "C"),
		mk("D", "E"),
	}
	pats := FrequentPairs(seqs, 1.0)
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	if pats[0].Labels[0] != "A" || pats[0].Labels[1] != "B" {
		t.Fatalf("top pattern = %v", pats[0].Labels)
	}
	// Expected support of A->B: 3 occurrences * 0.8*0.8 = 1.92.
	if math.Abs(pats[0].ExpectedSupport-1.92) > 1e-9 {
		t.Fatalf("support = %v", pats[0].ExpectedSupport)
	}
	// Higher threshold filters.
	if len(FrequentPairs(seqs, 10)) != 0 {
		t.Fatal("threshold not applied")
	}
}

func TestExtendPatterns(t *testing.T) {
	mk := func(labels ...string) []ProbItem {
		out := make([]ProbItem, len(labels))
		for i, l := range labels {
			out[i] = ProbItem{{Label: l, Prob: 1}}
		}
		return out
	}
	seqs := [][]ProbItem{
		mk("A", "B", "C"),
		mk("A", "B", "C"),
		mk("A", "B", "D"),
	}
	pairs := FrequentPairs(seqs, 1.5)
	triples := ExtendPatterns(seqs, pairs, 1.5)
	if len(triples) != 1 {
		t.Fatalf("triples = %+v", triples)
	}
	want := []string{"A", "B", "C"}
	for i, l := range triples[0].Labels {
		if l != want[i] {
			t.Fatalf("triple = %v", triples[0].Labels)
		}
	}
	if math.Abs(triples[0].ExpectedSupport-2) > 1e-9 {
		t.Fatalf("support = %v", triples[0].ExpectedSupport)
	}
}

func TestPopularRouteRecoversDominantPath(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 8, NY: 8, Spacing: 100, Seed: 6})
	path, err := g.ShortestPath(0, roadnet.NodeID(g.NumNodes()-1))
	if err != nil {
		t.Fatal(err)
	}
	dominant := path.Edges
	rng := rand.New(rand.NewSource(7))
	var routes [][]roadnet.EdgeID
	for i := 0; i < 30; i++ {
		r := append([]roadnet.EdgeID(nil), dominant...)
		// Noise: drop a random prefix/suffix edge sometimes.
		if rng.Float64() < 0.3 && len(r) > 2 {
			r = r[1:]
		}
		if rng.Float64() < 0.3 && len(r) > 2 {
			r = r[:len(r)-1]
		}
		routes = append(routes, r)
	}
	// A few entirely different routes.
	other, _ := g.ShortestPath(roadnet.NodeID(3), roadnet.NodeID(g.NumNodes()-4))
	for i := 0; i < 5; i++ {
		routes = append(routes, other.Edges)
	}
	got := PopularRoute(routes, 100)
	// The recovered route should overlap the dominant route heavily.
	dom := map[roadnet.EdgeID]bool{}
	for _, e := range dominant {
		dom[e] = true
	}
	overlap := 0
	for _, e := range got {
		if dom[e] {
			overlap++
		}
	}
	if len(got) == 0 || float64(overlap)/float64(len(got)) < 0.8 {
		t.Fatalf("popular route overlap %d/%d", overlap, len(got))
	}
	if PopularRoute(nil, 10) != nil {
		t.Fatal("empty routes")
	}
	if PopularRoute(routes, 0) != nil {
		t.Fatal("maxLen 0")
	}
}

func TestPopularRouteRespectsMaxLen(t *testing.T) {
	routes := [][]roadnet.EdgeID{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}}
	if got := PopularRoute(routes, 3); len(got) != 3 {
		t.Fatalf("maxLen ignored: %v", got)
	}
}

var _ = simulate.FieldOptions{} // reserved for future analysis tests
