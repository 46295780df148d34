package roadnet

// Query-engine observability. Package-level totals count across all
// engines and caches for process-wide exposition (one add per query,
// batched for heap pops — never inside the relaxation loop); they are
// updated only after InstrumentTo enables them, so the default cost is
// a single atomic bool load per query.

import (
	"sync/atomic"

	"sidq/internal/obs"
)

// pkgObs aggregates across every engine and route cache in the
// process. enabled gates the aggregation so uninstrumented processes
// pay only the atomic load.
var pkgObs struct {
	enabled atomic.Bool

	dijkstra, manySweeps, heapPops atomic.Uint64

	cacheHits, cacheMisses, cacheEvictions atomic.Uint64

	// cacheEntries is the pairs held by the route caches of the engines
	// not yet invalidated. It is kept whether or not enabled is set (a
	// pair stored before InstrumentTo is still held after it): a store
	// batch adds what it grew its shard by, Graph.invalidate takes the
	// dropped engine's RouteCache.Len back out.
	cacheEntries atomic.Int64
}

// obsAdd bumps a process-wide total when package observation is
// enabled; a zero n costs no write to the shared line.
func obsAdd(total *atomic.Uint64, n uint64) {
	if n != 0 && pkgObs.enabled.Load() {
		total.Add(n)
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
	reg.Help("sidq_roadnet_route_cache_evictions_total", "Node pairs a full route-cache set dropped to admit a new one.")
	reg.Help("sidq_roadnet_route_cache_entries", "Node pairs held by the route caches of all engines not invalidated by a graph mutation.")
	counter := func(name string, v *atomic.Uint64) {
		reg.Func(name, obs.FuncCounter, func() float64 { return float64(v.Load()) })
	}
	counter("sidq_roadnet_dijkstra_total", &pkgObs.dijkstra)
	counter("sidq_roadnet_many_sweeps_total", &pkgObs.manySweeps)
	counter("sidq_roadnet_heap_pops_total", &pkgObs.heapPops)
	counter("sidq_roadnet_route_cache_hits_total", &pkgObs.cacheHits)
	counter("sidq_roadnet_route_cache_misses_total", &pkgObs.cacheMisses)
	counter("sidq_roadnet_route_cache_evictions_total", &pkgObs.cacheEvictions)
	reg.Func("sidq_roadnet_route_cache_entries", obs.FuncGauge, func() float64 { return float64(pkgObs.cacheEntries.Load()) })
}
