package roadnet

import (
	"math"
	"strings"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/obs"
)

func TestEngineStatsCountQueries(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 8, NY: 8, Seed: 3})
	e := g.Engine()
	a, _ := g.NodeAt(gridCorner(0, 0))
	b, _ := g.NodeAt(gridCorner(7, 7))

	if _, err := e.ShortestPath(a, b); err != nil {
		t.Fatal(err)
	}
	pathPops := e.Stats().HeapPops
	if pathPops == 0 {
		t.Error("HeapPops = 0 after ShortestPath, want > 0")
	}
	// One same-edge candidate (no lookup), two on distinct other edges
	// (two misses, one sweep); asked again, both are hits and nothing
	// is swept.
	from := Snap{Edge: 0, Param: 0.5}
	cands := []Snap{{Edge: 0, Param: 0.75}, {Edge: EdgeID(g.NumEdges() - 1)}, {Edge: EdgeID(g.NumEdges() / 2)}}
	out := make([]float64, len(cands))
	e.SnapDists(from, cands, math.Inf(1), out)
	sweepPops := e.Stats().HeapPops
	e.SnapDists(from, cands, math.Inf(1), out)

	want := EngineStats{Dijkstra: 1, ManySweeps: 1, HeapPops: sweepPops, CacheMisses: 2, CacheHits: 2, CacheLen: 2}
	if st := e.Stats(); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	if sweepPops <= pathPops {
		t.Errorf("HeapPops %d -> %d across a sweep, want growth", pathPops, sweepPops)
	}
}

func TestInstrumentToExposesRoadnetFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	InstrumentTo(reg)

	g := GridCity(GridCityOptions{NX: 8, NY: 8, Seed: 3})
	e := g.Engine()
	a, _ := g.NodeAt(gridCorner(0, 0))
	b, _ := g.NodeAt(gridCorner(7, 7))
	if _, err := e.ShortestPath(a, b); err != nil {
		t.Fatal(err)
	}
	e.SnapDists(Snap{Edge: 0, Param: 0.5}, []Snap{{Edge: 1, Param: 0.5}}, math.Inf(1), []float64{0})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, fam := range []string{
		"sidq_roadnet_dijkstra_total",
		"sidq_roadnet_many_sweeps_total",
		"sidq_roadnet_heap_pops_total",
		"sidq_roadnet_route_cache_hits_total",
		"sidq_roadnet_route_cache_misses_total",
	} {
		if !strings.Contains(expo, "# TYPE "+fam+" counter") {
			t.Errorf("exposition missing %s", fam)
		}
	}
	if n := strings.Count(expo, "# TYPE sidq_roadnet_"); n != 5 {
		t.Errorf("exposition has %d sidq_roadnet_ families, want 5:\n%s", n, expo)
	}
	if !strings.Contains(expo, "sidq_roadnet_route_cache_misses_total 1") {
		t.Errorf("expected one cache miss in exposition:\n%s", expo)
	}
}

// gridCorner maps grid coordinates to the default 100m GridCity spacing.
func gridCorner(x, y float64) geo.Point { return geo.Pt(x*100, y*100) }
