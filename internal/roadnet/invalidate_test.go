package roadnet

// Stale-route bug guard: a graph mutation must invalidate the compiled
// engine as a unit — CSR snapshot and route cache together. A CSR
// rebuilt beside the old cache would serve cached routes that miss a
// newly added bypass.

import (
	"math"
	"testing"

	"sidq/internal/geo"
)

func TestMutationInvalidatesEngineAndRouteCacheTogether(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 8, NY: 8, Seed: 21})
	e1 := g.Engine()
	a, b := NodeID(0), NodeID(g.NumNodes()-1) // opposite corners
	// A transition from the end of an edge into a to the start of an
	// edge out of b: its network distance is exactly d(a, b).
	var into, outOf Snap
	for i := 0; i < g.NumEdges(); i++ {
		if ed := g.Edge(EdgeID(i)); ed.To == a {
			into = Snap{Edge: ed.ID, Param: 1}
		} else if ed.From == b {
			outOf = Snap{Edge: ed.ID, Param: 0}
		}
	}
	dist := func(e *Engine) float64 {
		out := []float64{0}
		e.SnapDists(into, []Snap{outOf}, math.Inf(1), out)
		return out[0]
	}

	// Warm the old engine: the route is now cached.
	before := dist(e1)
	if before != refDijkstra(g, a)[b] {
		t.Fatalf("pre-mutation SnapDists = %v, reference %v", before, refDijkstra(g, a)[b])
	}
	if e1.cache.Len() == 0 {
		t.Fatal("route cache unexpectedly empty after SnapDists")
	}

	// Mutate: a highway-style bypass straight across the grid through a
	// new midpoint node, far shorter than any street route.
	mid := g.AddNode(geo.Pt(350, 350))
	g.AddBidirectional(a, mid, 30)
	g.AddBidirectional(mid, b, 30)

	e2 := g.Engine()
	if e2 == e1 {
		t.Fatal("Engine() returned the stale compiled engine after mutation")
	}
	if e2.cache == e1.cache {
		t.Fatal("rebuilt engine kept the stale route cache")
	}
	if e2.cache.Len() != 0 {
		t.Fatalf("rebuilt route cache has %d stale entries, want 0", e2.cache.Len())
	}

	// The rebuilt engine must see the bypass: exact agreement with a
	// reference Dijkstra on the mutated graph, and strictly shorter than
	// the pre-mutation distance.
	after := dist(e2)
	if ref := refDijkstra(g, a)[b]; after != ref {
		t.Fatalf("post-mutation SnapDists = %v, reference %v", after, ref)
	}
	if !(after < before) {
		t.Fatalf("bypass did not shorten the route: before %v, after %v", before, after)
	}

	// The old engine snapshot stays internally consistent (build-then-
	// query contract): it still answers with the old graph's distances.
	if stale := dist(e1); stale != before {
		t.Fatalf("stale engine answer changed: %v, want %v", stale, before)
	}
}

// TestAddNodeAloneInvalidates pins that node insertion alone (no new
// edges yet) already drops the compiled engine — the CSR's node count
// is part of the snapshot.
func TestAddNodeAloneInvalidates(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 8, NY: 8, Seed: 3})
	e1 := g.Engine()
	g.AddNode(geo.Pt(1000, 1000))
	if g.Engine() == e1 {
		t.Fatal("AddNode did not invalidate the compiled engine")
	}
	if got, want := g.Engine().NumNodes(), g.NumNodes(); got != want {
		t.Fatalf("rebuilt engine has %d nodes, want %d", got, want)
	}
}
