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

	cacheHits, cacheMisses atomic.Uint64
}

// obsAdd bumps a process-wide total when package observation is
// enabled.
func obsAdd(total *atomic.Uint64, n uint64) {
	if pkgObs.enabled.Load() {
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
	counter := func(name string, v *atomic.Uint64) {
		reg.Func(name, obs.FuncCounter, func() float64 { return float64(v.Load()) })
	}
	counter("sidq_roadnet_dijkstra_total", &pkgObs.dijkstra)
	counter("sidq_roadnet_many_sweeps_total", &pkgObs.manySweeps)
	counter("sidq_roadnet_heap_pops_total", &pkgObs.heapPops)
	counter("sidq_roadnet_route_cache_hits_total", &pkgObs.cacheHits)
	counter("sidq_roadnet_route_cache_misses_total", &pkgObs.cacheMisses)
}
