package roadnet

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
)

func simpleSquare() *Graph {
	// 0 -- 1
	// |    |
	// 2 -- 3
	g := NewGraph()
	n0 := g.AddNode(geo.Pt(0, 100))
	n1 := g.AddNode(geo.Pt(100, 100))
	n2 := g.AddNode(geo.Pt(0, 0))
	n3 := g.AddNode(geo.Pt(100, 0))
	g.AddBidirectional(n0, n1, 10)
	g.AddBidirectional(n0, n2, 10)
	g.AddBidirectional(n1, n3, 10)
	g.AddBidirectional(n2, n3, 10)
	return g
}

func TestShortestPathSquare(t *testing.T) {
	g := simpleSquare()
	p, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Dist-200) > 1e-9 {
		t.Fatalf("dist = %v", p.Dist)
	}
	if len(p.Nodes) != 3 || p.Nodes[0] != 0 || p.Nodes[2] != 3 {
		t.Fatalf("nodes = %v", p.Nodes)
	}
	if len(p.Edges) != 2 {
		t.Fatalf("edges = %v", p.Edges)
	}
	// Path edges must actually connect the nodes.
	for i, eid := range p.Edges {
		e := g.Edge(eid)
		if e.From != p.Nodes[i] || e.To != p.Nodes[i+1] {
			t.Fatalf("edge %d does not connect %v", i, p.Nodes)
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := simpleSquare()
	p, err := g.ShortestPath(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path: %+v", p)
	}
}

func TestNoPath(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(geo.Pt(0, 0))
	b := g.AddNode(geo.Pt(10, 0))
	_, err := g.ShortestPath(a, b)
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("want ErrNoPath, got %v", err)
	}
	if _, err := g.ShortestPath(a, NodeID(99)); !errors.Is(err, ErrNoPath) {
		t.Fatalf("bad node id: %v", err)
	}
}

func TestGridCityConnected(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 8, NY: 8, Spacing: 100, RemoveFrac: 0.4, Seed: 1})
	// The boundary ring is preserved, so all corner-to-corner routes exist.
	if _, err := g.ShortestPath(0, NodeID(g.NumNodes()-1)); err != nil {
		t.Fatalf("grid city disconnected: %v", err)
	}
	if g.NumNodes() != 64 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Determinism.
	g2 := GridCity(GridCityOptions{NX: 8, NY: 8, Spacing: 100, RemoveFrac: 0.4, Seed: 1})
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("generator not deterministic")
	}
}

func TestGridCityDefaults(t *testing.T) {
	g := GridCity(GridCityOptions{})
	if g.NumNodes() != 4 {
		t.Fatalf("default city nodes = %d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("default city has no edges")
	}
}

func TestSnapperNearest(t *testing.T) {
	g := simpleSquare()
	s := NewSnapper(g, 50)
	snaps := s.KNearest(geo.Pt(50, -10), 1)
	if len(snaps) != 1 {
		t.Fatal("no snap")
	}
	snap := snaps[0]
	if math.Abs(snap.Dist-10) > 1e-9 {
		t.Fatalf("snap dist = %v", snap.Dist)
	}
	if snap.Pos.Dist(geo.Pt(50, 0)) > 1e-9 {
		t.Fatalf("snap pos = %v", snap.Pos)
	}
	e := g.Edge(snap.Edge)
	if !(e.From == 2 && e.To == 3) && !(e.From == 3 && e.To == 2) {
		t.Fatalf("snapped to wrong edge %v", e)
	}
}

func TestSnapperMatchesBruteForce(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 10, NY: 10, Spacing: 100, Jitter: 15, RemoveFrac: 0.2, Seed: 7})
	s := NewSnapper(g, 80)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		p := geo.Pt(rng.Float64()*900, rng.Float64()*900)
		snaps := s.KNearest(p, 1)
		if len(snaps) != 1 {
			t.Fatal("no snap")
		}
		snap := snaps[0]
		// Brute force.
		best := math.Inf(1)
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(EdgeID(i))
			seg := geo.Segment{A: g.Node(e.From).Pos, B: g.Node(e.To).Pos}
			if d := seg.Dist(p); d < best {
				best = d
			}
		}
		if math.Abs(snap.Dist-best) > 1e-9 {
			t.Fatalf("trial %d: snap %v vs brute %v", trial, snap.Dist, best)
		}
	}
}

func TestSnapperKNearest(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 6, NY: 6, Spacing: 100, Seed: 2})
	s := NewSnapper(g, 60)
	p := geo.Pt(250, 250)
	snaps := s.KNearest(p, 5)
	if len(snaps) != 5 {
		t.Fatalf("got %d snaps", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Dist < snaps[i-1].Dist {
			t.Fatal("snaps not sorted by distance")
		}
	}
	seen := map[EdgeID]bool{}
	for _, sn := range snaps {
		if seen[sn.Edge] {
			t.Fatal("duplicate edge in KNearest")
		}
		seen[sn.Edge] = true
	}
	// The first of five is the one a request for one returns.
	if n := s.KNearest(p, 1); len(n) != 1 || n[0] != snaps[0] {
		t.Fatalf("KNearest(p, 1) = %v, want [%v]", n, snaps[0])
	}
	if s.KNearest(p, 0) != nil {
		t.Fatal("k=0 should be nil")
	}
}

// TestContinental pins the multi-city generator: node count, strong
// connectivity across the highway mesh, and determinism.
func TestContinental(t *testing.T) {
	opt := ContinentalOptions{CitiesX: 3, CitiesY: 3, CityNX: 6, CityNY: 6, Jitter: 4, RemoveFrac: 0.2, Seed: 11}
	g := Continental(opt)
	if got, want := g.NumNodes(), 3*3*6*6; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if ref := refDijkstra(g, 0); len(ref) != g.NumNodes() {
		t.Fatalf("reference reached %d of %d nodes: not strongly connected", len(ref), g.NumNodes())
	}
	g2 := Continental(opt)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("regenerated edge count %d != %d", g2.NumEdges(), g.NumEdges())
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(NodeID(i)).Pos != g2.Node(NodeID(i)).Pos {
			t.Fatalf("regenerated node %d moved", i)
		}
	}
}

// TestNetworkDist checks the three shapes of a snap-to-snap network
// distance on the 100 m square, as one-element SnapDists queries.
func TestNetworkDist(t *testing.T) {
	g := simpleSquare()
	edge := func(from, to NodeID) EdgeID {
		for i := 0; i < g.NumEdges(); i++ {
			if e := g.Edge(EdgeID(i)); e.From == from && e.To == to {
				return e.ID
			}
		}
		t.Fatalf("edge %d->%d not found", from, to)
		return -1
	}
	e23, e31 := edge(2, 3), edge(3, 1)
	for _, c := range []struct {
		name string
		a, b Snap
		want float64
	}{
		{"same edge forward", Snap{Edge: e23, Param: 0.25}, Snap{Edge: e23, Param: 0.75}, 50},
		// Backward on a directed edge: on to 3, back 3->2, then forward again.
		{"same edge backward", Snap{Edge: e23, Param: 0.75}, Snap{Edge: e23, Param: 0.25}, 25 + 100 + 25},
		{"cross edge", Snap{Edge: e23, Param: 0.25}, Snap{Edge: e31, Param: 0.5}, 75 + 0 + 50},
	} {
		out := []float64{0}
		g.Engine().SnapDists(c.a, []Snap{c.b}, math.Inf(1), out)
		if math.Abs(out[0]-c.want) > 1e-9 {
			t.Errorf("%s: dist = %v, want %v", c.name, out[0], c.want)
		}
	}
}

func TestNodeAtAndGeometry(t *testing.T) {
	g := simpleSquare()
	p, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl := g.Geometry(p)
	if len(pl) != len(p.Nodes) {
		t.Fatal("geometry length mismatch")
	}
	if math.Abs(pl.Length()-p.Dist) > 1e-9 {
		t.Fatalf("geometry length %v != path dist %v", pl.Length(), p.Dist)
	}
}
