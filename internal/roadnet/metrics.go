package roadnet

// Query-engine observability. Every Engine keeps its own atomic
// counters (one add per query, batched for heap pops — never inside
// the relaxation loop), exposed via Engine.Stats. Package-level totals
// aggregate across all engines and caches for process-wide exposition;
// they are updated only after InstrumentTo enables them, so the
// default cost is a single atomic bool load per query.

import (
	"sync/atomic"

	"sidq/internal/obs"
)

// engineCounters are one engine's query counters.
type engineCounters struct {
	dijkstra   atomic.Uint64 // ShortestPath searches
	manySweeps atomic.Uint64 // truncated one-to-many sweeps (SnapDists cache misses)
	heapPops   atomic.Uint64 // total heap pops across all searches
}

// pkgObs aggregates across every engine and route cache in the
// process. enabled gates the aggregation so uninstrumented processes
// pay only the atomic load.
var pkgObs struct {
	enabled atomic.Bool

	dijkstra, manySweeps, heapPops atomic.Uint64

	cacheHits, cacheMisses atomic.Uint64
}

// obsAdd bumps an engine counter and, when package observation is
// enabled, the matching process-wide total.
func obsAdd(own, total *atomic.Uint64, n uint64) {
	own.Add(n)
	if pkgObs.enabled.Load() {
		total.Add(n)
	}
}

// EngineStats is a point-in-time snapshot of one engine's query
// counters and its route cache.
type EngineStats struct {
	Dijkstra   uint64 // ShortestPath searches
	ManySweeps uint64 // one-to-many sweeps (SnapDists calls with a cache miss)
	HeapPops   uint64 // heap pops across every search

	CacheHits   uint64 // route-cache lookups served from cache
	CacheMisses uint64 // route-cache lookups that required a search
	CacheLen    int    // current cached entries
}

// Stats returns the engine's current counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Dijkstra:    e.ctr.dijkstra.Load(),
		ManySweeps:  e.ctr.manySweeps.Load(),
		HeapPops:    e.ctr.heapPops.Load(),
		CacheHits:   e.cache.Hits(),
		CacheMisses: e.cache.Misses(),
		CacheLen:    e.cache.Len(),
	}
}

// InstrumentTo enables process-wide roadnet aggregation and registers
// the sidq_roadnet_* families in reg as callback series. Totals span
// every engine and route cache in the process from the first call on
// (queries before it are not retroactively counted). Safe to call more
// than once and from multiple registries.
func InstrumentTo(reg *obs.Registry) {
	pkgObs.enabled.Store(true)
	reg.Help("sidq_roadnet_dijkstra_total", "Dijkstra path searches (ShortestPath) across all engines.")
	reg.Help("sidq_roadnet_many_sweeps_total", "Truncated one-to-many Dijkstra sweeps (SnapDists calls with a route-cache miss).")
	reg.Help("sidq_roadnet_heap_pops_total", "Heap pops across every road-network search.")
	reg.Help("sidq_roadnet_route_cache_hits_total", "Route-cache lookups served from cache.")
	reg.Help("sidq_roadnet_route_cache_misses_total", "Route-cache lookups that required a graph search.")
	counter := func(name string, v *atomic.Uint64) {
		reg.Func(name, obs.FuncCounter, func() float64 { return float64(v.Load()) })
	}
	counter("sidq_roadnet_dijkstra_total", &pkgObs.dijkstra)
	counter("sidq_roadnet_many_sweeps_total", &pkgObs.manySweeps)
	counter("sidq_roadnet_heap_pops_total", &pkgObs.heapPops)
	counter("sidq_roadnet_route_cache_hits_total", &pkgObs.cacheHits)
	counter("sidq_roadnet_route_cache_misses_total", &pkgObs.cacheMisses)
}
