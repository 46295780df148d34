package roadnet_test

// Defensive test for the package-level mutation/aliasing contract:
// Graph.OutEdges returns the graph's internal adjacency storage, so
// the downstream consumers (trip simulation, map matching, snapping)
// must never append to or write through the returned slices. This test
// snapshots the adjacency before driving those consumers and fails if
// any element — or the backing-array identity — changed.

import (
	"testing"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/uncertain"
)

// adjacencySnapshot deep-copies every node's out-edge list.
func adjacencySnapshot(g *roadnet.Graph) [][]roadnet.EdgeID {
	snap := make([][]roadnet.EdgeID, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		out := g.OutEdges(roadnet.NodeID(n))
		snap[n] = append([]roadnet.EdgeID(nil), out...)
	}
	return snap
}

func checkAdjacency(t *testing.T, g *roadnet.Graph, snap [][]roadnet.EdgeID, stage string) {
	t.Helper()
	if g.NumNodes() != len(snap) {
		t.Fatalf("%s: node count changed: %d -> %d", stage, len(snap), g.NumNodes())
	}
	for n := range snap {
		out := g.OutEdges(roadnet.NodeID(n))
		if len(out) != len(snap[n]) {
			t.Fatalf("%s: node %d adjacency length changed: %v -> %v", stage, n, snap[n], out)
		}
		for i := range out {
			if out[i] != snap[n][i] {
				t.Fatalf("%s: node %d adjacency mutated at %d: %v -> %v", stage, n, i, snap[n], out)
			}
		}
	}
}

func TestOutEdgesCallersDoNotMutate(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{
		NX: 9, NY: 9, Spacing: 110, Jitter: 6, RemoveFrac: 0.2, Seed: 77,
	})
	snap := adjacencySnapshot(g)

	trips := simulate.Trips(g, simulate.TripOptions{
		NumObjects: 4, MinHops: 10, Speed: 12, SampleInterval: 1, Seed: 78,
	})
	checkAdjacency(t, g, snap, "simulate.Trips")

	snapper := roadnet.NewSnapper(g, 100)
	for i, tr := range trips {
		noisy := simulate.AddGaussianNoise(tr, 9, int64(80+i))
		if _, err := uncertain.MapMatch(g, snapper, noisy, uncertain.MatchOptions{EmissionSigma: 12}); err != nil {
			t.Fatalf("MapMatch trip %d: %v", i, err)
		}
	}
	checkAdjacency(t, g, snap, "uncertain.MapMatch")

	// Engine compilation and direct queries must not touch adjacency
	// either: the CSR build reads it, never writes.
	for a := 0; a < g.NumNodes(); a += 7 {
		for b := g.NumNodes() - 1; b >= 0; b -= 13 {
			_, _ = g.ShortestPath(roadnet.NodeID(a), roadnet.NodeID(b))
		}
	}
	checkAdjacency(t, g, snap, "engine queries")
}

// TestOutEdgesAliasesInternalStorage documents (and pins) the aliasing
// half of the contract: the same node returns the same backing slice,
// not a copy, which is why callers must treat it as read-only.
func TestOutEdgesAliasesInternalStorage(t *testing.T) {
	g := roadnet.NewGraph()
	a := g.AddNode(geo.Pt(0, 0))
	b := g.AddNode(geo.Pt(100, 0))
	g.AddBidirectional(a, b, 10)
	o1 := g.OutEdges(a)
	o2 := g.OutEdges(a)
	if len(o1) != 1 || len(o2) != 1 {
		t.Fatalf("expected one out-edge, got %v / %v", o1, o2)
	}
	if &o1[0] != &o2[0] {
		t.Fatal("OutEdges returned a copy; the documented contract says it aliases internal storage")
	}
}
