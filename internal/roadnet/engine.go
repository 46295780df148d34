package roadnet

import (
	"fmt"
	"math"
	"sync"
)

// Engine is the compiled road-network query engine: a flattened CSR
// (compressed sparse row) snapshot of a Graph's adjacency, a pooled
// set of epoch-stamped search scratch arrays, and a sharded route
// cache. It is built once per graph revision (see Graph.Engine) and is
// safe for concurrent queries from many goroutines: every search
// borrows a private scratch from a pool, and the route cache is
// internally synchronized.
//
// It answers the two questions its consumers ask. ShortestPath is one
// Dijkstra search with path reconstruction (trip simulation, route
// recovery). SnapDists is the map matcher's transition query, and has
// the package's one dispatch rule: same edge forward → along the edge;
// else the route cache; else one truncated Dijkstra sweep over the
// heads the cache did not have, whose results go into the cache.
//
// All distances are exact: both searches relax edges in adjacency
// order with the same float64 arithmetic and the same heap
// tie-breaking (see nodeHeap), so a cached distance, a swept distance
// and ShortestPath(...).Dist are the same bits.
type Engine struct {
	// CSR adjacency: the out-edges of node u occupy slots
	// off[u]..off[u+1] in to/eid/w, preserving Graph adjacency order.
	off []int32
	to  []int32   // target node per slot
	eid []int32   // edge id per slot
	w   []float64 // edge length per slot

	efrom []int32   // edge id -> source node (for path reconstruction)
	eto   []int32   // edge id -> target node
	elen  []float64 // edge id -> length

	cache   *RouteCache
	scratch sync.Pool // *searchScratch
}

// newEngine compiles g. The graph must not be mutated while the engine
// is in use (Graph.AddNode/AddEdge invalidate the cached engine).
func newEngine(g *Graph) *Engine {
	n := len(g.nodes)
	m := len(g.edges)
	e := &Engine{
		off:   make([]int32, n+1),
		to:    make([]int32, 0, m),
		eid:   make([]int32, 0, m),
		w:     make([]float64, 0, m),
		efrom: make([]int32, m),
		eto:   make([]int32, m),
		elen:  make([]float64, m),
	}
	for i, ed := range g.edges {
		e.efrom[i] = int32(ed.From)
		e.eto[i] = int32(ed.To)
		e.elen[i] = ed.Length
	}
	for u := 0; u < n; u++ {
		e.off[u] = int32(len(e.to))
		for _, id := range g.out[u] {
			ed := g.edges[id]
			e.to = append(e.to, int32(ed.To))
			e.eid = append(e.eid, int32(id))
			e.w = append(e.w, ed.Length)
		}
	}
	e.off[n] = int32(len(e.to))
	e.scratch.New = func() any { return newSearchScratch(n) }
	e.cache = NewRouteCache(routeCacheCapacity(m))
	return e
}

// routeCacheCapacity sizes the default route cache to the graph: enough
// to hold the working set of a map-matching pass without letting huge
// graphs pin unbounded memory.
func routeCacheCapacity(numEdges int) int {
	c := 8 * numEdges
	if c < 1024 {
		c = 1024
	}
	if c > 1<<16 {
		c = 1 << 16
	}
	return c
}

// NumNodes returns the node count of the compiled snapshot.
func (e *Engine) NumNodes() int { return len(e.off) - 1 }

// searchScratch is the per-search state, reused across queries via the
// engine pool. Validity of dist/prev entries is tracked by epoch
// stamps, so starting a new search is O(1) — no clearing, no per-query
// allocation.
type searchScratch struct {
	dist    []float64
	prev    []int32  // best incoming edge id, -1 = none
	seen    []uint32 // epoch when dist/prev became valid
	done    []uint32 // epoch when the node was settled
	target  []uint32 // epoch when the node was marked a sweep target
	targets int      // distinct nodes marked this epoch
	epoch   uint32
	heap    nodeHeap
}

func newSearchScratch(n int) *searchScratch {
	return &searchScratch{
		dist:   make([]float64, n),
		prev:   make([]int32, n),
		seen:   make([]uint32, n),
		done:   make([]uint32, n),
		target: make([]uint32, n),
	}
}

// begin starts a new search epoch, handling uint32 wraparound.
func (s *searchScratch) begin() {
	if s.epoch == math.MaxUint32 {
		for i := range s.seen {
			s.seen[i] = 0
			s.done[i] = 0
			s.target[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	s.targets = 0
	s.heap.reset()
}

// mark makes v a target of this epoch's sweep (see manyDist);
// marking a node twice counts it once.
func (s *searchScratch) mark(v int32) {
	if s.target[v] != s.epoch {
		s.target[v] = s.epoch
		s.targets++
	}
}

func (s *searchScratch) distOf(v int32) float64 {
	if s.seen[v] == s.epoch {
		return s.dist[v]
	}
	return math.Inf(1)
}

func (e *Engine) getScratch() *searchScratch { return e.scratch.Get().(*searchScratch) }

func (e *Engine) putScratch(s *searchScratch) { e.scratch.Put(s) }

// ShortestPath returns the minimum-length path from a to b: Dijkstra's
// algorithm, stopped when b is settled. It replicates the legacy search
// loop exactly — same relaxation order, same strict-improvement rule,
// same heap tie-breaking — so results are byte-identical to it.
func (e *Engine) ShortestPath(a, b NodeID) (Path, error) {
	obsAdd(&pkgObs.dijkstra, 1)
	if n := e.NumNodes(); int(a) >= n || int(b) >= n || a < 0 || b < 0 {
		return Path{}, fmt.Errorf("roadnet: search bad nodes %d->%d (have %d): %w", a, b, n, ErrNoPath)
	}
	s := e.getScratch()
	defer e.putScratch(s)
	s.begin()
	src, dst := int32(a), int32(b)
	s.dist[src] = 0
	s.prev[src] = -1
	s.seen[src] = s.epoch
	s.heap.push(src, 0)
	var pops uint64
	for s.heap.len() > 0 {
		cur := s.heap.pop()
		pops++
		if s.done[cur.node] == s.epoch {
			continue
		}
		s.done[cur.node] = s.epoch
		if cur.node == dst {
			break
		}
		d := s.dist[cur.node]
		for i := e.off[cur.node]; i < e.off[cur.node+1]; i++ {
			v := e.to[i]
			if s.done[v] == s.epoch {
				continue
			}
			nd := d + e.w[i]
			if nd < s.distOf(v) {
				s.dist[v] = nd
				s.prev[v] = e.eid[i]
				s.seen[v] = s.epoch
				s.heap.push(v, nd)
			}
		}
	}
	obsAdd(&pkgObs.heapPops, pops)
	if math.IsInf(s.distOf(dst), 1) {
		return Path{}, fmt.Errorf("roadnet: %d -> %d: %w", a, b, ErrNoPath)
	}
	// Reconstruct (same construction as the legacy search).
	var edges []EdgeID
	nodes := []NodeID{b}
	for cur := dst; cur != src; {
		eid := s.prev[cur]
		edges = append(edges, EdgeID(eid))
		cur = e.efrom[eid]
		nodes = append(nodes, NodeID(cur))
	}
	reverseEdges(edges)
	reverseNodes(nodes)
	return Path{Nodes: nodes, Edges: edges, Dist: s.dist[dst]}, nil
}

// manyDist is the truncated one-to-many sweep: Dijkstra from src that
// stops as soon as every node marked on s since s.begin() is settled,
// or the frontier passes maxCost, so K nearby targets cost roughly one
// bounded search instead of K full ones. After return a target v was
// reached iff s.done[v] == s.epoch, and then s.dist[v] is exactly
// ShortestPath(src, v).Dist; truncation only leaves targets farther
// than maxCost (or unreachable) unsettled. It allocates nothing once
// the scratch heap has grown to the search's high-water mark.
func (e *Engine) manyDist(s *searchScratch, src int32, maxCost float64) {
	obsAdd(&pkgObs.manySweeps, 1)
	s.dist[src] = 0
	s.seen[src] = s.epoch
	s.heap.push(src, 0)
	bounded := !math.IsInf(maxCost, 1)
	remaining := s.targets
	var pops uint64
	for s.heap.len() > 0 {
		cur := s.heap.pop()
		pops++
		if s.done[cur.node] == s.epoch {
			continue
		}
		if bounded && cur.prio > maxCost {
			break // frontier is monotone: nothing closer remains
		}
		s.done[cur.node] = s.epoch
		if s.target[cur.node] == s.epoch {
			if remaining--; remaining == 0 {
				break
			}
		}
		d := s.dist[cur.node]
		for i := e.off[cur.node]; i < e.off[cur.node+1]; i++ {
			v := e.to[i]
			if s.done[v] == s.epoch {
				continue
			}
			nd := d + e.w[i]
			if nd < s.distOf(v) {
				s.dist[v] = nd
				s.seen[v] = s.epoch
				s.heap.push(v, nd)
			}
		}
	}
	obsAdd(&pkgObs.heapPops, pops)
}

// SnapDists fills out[j] with the network distance from snap a to each
// snap in bs — the map matcher's transition query. Same-edge forward
// movement is measured along the edge; every other pair is
//
//	(1-a.Param)*len(a.Edge) + d(a.Edge.To, b.Edge.From) + b.Param*len(b.Edge)
//
// (backward movement on a directed edge loops round via its endpoints),
// with d served from the route cache and the heads the cache lacks
// resolved together by one truncated sweep bounded by maxCost. Pairs
// with no route, or beyond maxCost, get +Inf; a cache hit is returned
// whatever maxCost is. out must have len(bs). Every pair of the row
// has the source a.Edge.To, hence one cache shard: its lock is taken
// once for the lookups and, after a sweep, once for the stores.
func (e *Engine) SnapDists(a Snap, bs []Snap, maxCost float64, out []float64) {
	if len(out) < len(bs) {
		panic("roadnet: SnapDists out slice too short")
	}
	u := e.eto[a.Edge]
	rem := (1 - a.Param) * e.elen[a.Edge]
	sh := e.cache.shardOf(u)
	// Pass 1: same-edge shortcuts and cache hits; mark misses with NaN.
	var hits, misses uint64
	sh.mu.Lock()
	for j, b := range bs {
		if b.Edge == a.Edge && b.Param >= a.Param {
			out[j] = (b.Param - a.Param) * e.elen[a.Edge]
		} else if d, hit := sh.lookup(pairKey(u, e.efrom[b.Edge])); hit {
			out[j] = rem + d + b.Param*e.elen[b.Edge]
			hits++
		} else {
			out[j] = math.NaN()
			misses++
		}
	}
	sh.mu.Unlock()
	obsAdd(&pkgObs.cacheHits, hits)
	if misses == 0 {
		return
	}
	obsAdd(&pkgObs.cacheMisses, misses)
	// Pass 2: one truncated sweep settles the missing head nodes.
	core := maxCost
	unbounded := math.IsInf(maxCost, 1)
	if !unbounded {
		core -= rem // param offsets are non-negative
		if core < 0 {
			core = 0
		}
	}
	s := e.getScratch()
	s.begin()
	for j, b := range bs {
		if math.IsNaN(out[j]) {
			s.mark(e.efrom[b.Edge])
		}
	}
	e.manyDist(s, u, core)
	var evictions uint64
	sh.mu.Lock()
	held := sh.n
	for j, b := range bs {
		if !math.IsNaN(out[j]) {
			continue
		}
		v := e.efrom[b.Edge]
		d, settled := math.Inf(1), s.done[v] == s.epoch
		if settled {
			d = s.dist[v]
		}
		// Negative-cache definitive "no path" only for unbounded
		// sweeps; a truncated sweep proves nothing about v.
		if (settled || unbounded) && sh.store(pairKey(u, v), d) {
			evictions++
		}
		out[j] = rem + d + b.Param*e.elen[b.Edge]
	}
	grew := sh.n - held
	sh.mu.Unlock()
	obsAdd(&pkgObs.cacheEvictions, evictions)
	if grew != 0 {
		pkgObs.cacheEntries.Add(int64(grew))
	}
	e.putScratch(s)
}
