package roadnet

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/obs"
)

func TestInstrumentToExposesRoadnetFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	InstrumentTo(reg)

	g := GridCity(GridCityOptions{NX: 8, NY: 8, Seed: 3})
	e := g.Engine()
	if _, err := e.ShortestPath(0, NodeID(g.NumNodes()-1)); err != nil {
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
		"sidq_roadnet_route_cache_evictions_total",
	} {
		if !strings.Contains(expo, "# TYPE "+fam+" counter") {
			t.Errorf("exposition missing %s", fam)
		}
	}
	if !strings.Contains(expo, "# TYPE sidq_roadnet_route_cache_entries gauge") {
		t.Error("exposition missing the sidq_roadnet_route_cache_entries gauge")
	}
	if n := strings.Count(expo, "# TYPE sidq_roadnet_"); n != 7 {
		t.Errorf("exposition has %d sidq_roadnet_ families, want 7:\n%s", n, expo)
	}
	if !strings.Contains(expo, "sidq_roadnet_route_cache_misses_total 1") {
		t.Errorf("expected one cache miss in exposition:\n%s", expo)
	}
}

// engineTotals is a reading of the process-wide counters; a test
// asserts on the difference of two.
type engineTotals struct {
	Dijkstra, ManySweeps, HeapPops, CacheHits, CacheMisses uint64
}

func readEngineTotals() engineTotals {
	return engineTotals{
		Dijkstra: pkgObs.dijkstra.Load(), ManySweeps: pkgObs.manySweeps.Load(), HeapPops: pkgObs.heapPops.Load(),
		CacheHits: pkgObs.cacheHits.Load(), CacheMisses: pkgObs.cacheMisses.Load(),
	}
}

func (a engineTotals) since(b engineTotals) engineTotals {
	return engineTotals{a.Dijkstra - b.Dijkstra, a.ManySweeps - b.ManySweeps, a.HeapPops - b.HeapPops,
		a.CacheHits - b.CacheHits, a.CacheMisses - b.CacheMisses}
}

func TestEngineStatsCountQueries(t *testing.T) {
	pkgObs.enabled.Store(true)
	g := GridCity(GridCityOptions{NX: 8, NY: 8, Seed: 3})
	e := g.Engine()
	start := readEngineTotals()

	if _, err := e.ShortestPath(0, NodeID(g.NumNodes()-1)); err != nil {
		t.Fatal(err)
	}
	pathPops := readEngineTotals().since(start).HeapPops
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
	sweepPops := readEngineTotals().since(start).HeapPops
	e.SnapDists(from, cands, math.Inf(1), out)

	want := engineTotals{Dijkstra: 1, ManySweeps: 1, HeapPops: sweepPops, CacheMisses: 2, CacheHits: 2}
	if st := readEngineTotals().since(start); st != want {
		t.Errorf("totals moved by %+v, want %+v", st, want)
	}
	if n := e.cache.Len(); n != 2 {
		t.Errorf("route cache holds %d entries, want 2", n)
	}
	if sweepPops <= pathPops {
		t.Errorf("HeapPops %d -> %d across a sweep, want growth", pathPops, sweepPops)
	}
}

// TestRouteCacheGaugeAndEvictions: the entries gauge moves by what a
// store batch adds to RouteCache.Len, an engine's pairs leave it the
// moment a mutation invalidates the engine, and an eviction is counted
// once and leaves the gauge where it was.
func TestRouteCacheGaugeAndEvictions(t *testing.T) {
	reg := obs.NewRegistry()
	InstrumentTo(reg)
	entries := func() float64 {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		_, rest, _ := strings.Cut(sb.String(), "\nsidq_roadnet_route_cache_entries ")
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatalf("no sidq_roadnet_route_cache_entries sample: %v", err)
		}
		return v
	}

	// Other tests' engines were never invalidated and are still in the
	// gauge: assert on how it moves.
	base := entries()
	g := GridCity(GridCityOptions{NX: 8, NY: 8, Seed: 3})
	e := g.Engine()
	row := []Snap{{Edge: EdgeID(g.NumEdges() - 1)}, {Edge: EdgeID(g.NumEdges() / 2)}}
	for pass := 0; pass < 2; pass++ { // the second pass is all hits
		e.SnapDists(Snap{Edge: 0, Param: 0.5}, row, math.Inf(1), make([]float64, 2))
		if got := entries() - base; got != 2 || e.cache.Len() != 2 {
			t.Errorf("pass %d: gauge moved by %v, Len = %d; want 2, 2", pass, got, e.cache.Len())
		}
	}
	g.AddNode(geo.Pt(1, 1)) // drops the compiled engine
	if got := entries() - base; got != 0 {
		t.Errorf("gauge is %v above its start after the engine was invalidated, want 0", got)
	}

	// One source, two heads, a one-slot shard: the second store evicts.
	g2, e2, _ := islandCity(3, 16)
	start := pkgObs.cacheEvictions.Load()
	e2.SnapDists(Snap{Edge: 0, Param: 0.5}, []Snap{{Edge: EdgeID(g2.NumEdges() / 2)}, {Edge: EdgeID(g2.NumEdges() / 3)}}, math.Inf(1), make([]float64, 2))
	if got := pkgObs.cacheEvictions.Load() - start; got != 1 {
		t.Errorf("evictions moved by %d, want 1", got)
	}
	if got := entries() - base; got != 1 || e2.cache.Len() != 1 {
		t.Errorf("gauge moved by %v, Len = %d after a store and an evicting store; want 1, 1", got, e2.cache.Len())
	}
}
