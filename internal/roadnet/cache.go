package roadnet

import (
	"sync"
)

// RouteCache is a sharded LRU cache of node-pair network distances —
// the (edge-head, edge-tail) routing core that map matching recomputes
// constantly. Map matching decomposes every snap-to-snap distance into
//
//	(1-ta)*len(ea) + d(ea.To, eb.From) + tb*len(eb)
//
// where only the middle term needs a graph search; the affine parameter
// terms are recomputed exactly per query. Caching d(u, v) therefore
// buckets all parameter positions on an edge pair into one entry
// without ever approximating a result.
//
// The cache is safe for concurrent use: keys are sharded across
// independently locked LRU lists. Workers that miss the same pair at
// once each sweep and each store the same bits. "No path" results are
// cached too (negative caching), which matters on directed grids where
// many candidate pairs are mutually unreachable.
type RouteCache struct {
	shards [cacheShards]cacheShard
}

const cacheShards = 16

type cacheKey struct{ u, v int32 }

type cacheEntry struct {
	key        cacheKey
	dist       float64
	ok         bool // false = definitively no path
	prev, next *cacheEntry
}

type cacheShard struct {
	mu   sync.Mutex
	m    map[cacheKey]*cacheEntry
	head *cacheEntry // most recently used
	tail *cacheEntry // least recently used
	cap  int
}

// NewRouteCache returns a cache holding up to capacity node-pair
// distances (split across shards; capacity < shard count is rounded
// up to one entry per shard).
func NewRouteCache(capacity int) *RouteCache {
	c := &RouteCache{}
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*cacheEntry)
		c.shards[i].cap = per
	}
	return c
}

// Len returns the current number of cached entries.
func (c *RouteCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

func (c *RouteCache) shard(k cacheKey) *cacheShard {
	// FNV-1a over the two node ids.
	h := uint32(2166136261)
	h = (h ^ uint32(k.u)) * 16777619
	h = (h ^ uint32(k.v)) * 16777619
	return &c.shards[h%cacheShards]
}

// get looks up d(u, v). hit reports whether the pair was cached; ok
// reports whether a route exists (false = cached "no path").
func (c *RouteCache) get(u, v int32) (d float64, ok, hit bool) {
	k := cacheKey{u, v}
	s := c.shard(k)
	s.mu.Lock()
	e, found := s.m[k]
	if found {
		s.moveToFront(e)
		d, ok = e.dist, e.ok
	}
	s.mu.Unlock()
	if found {
		obsAdd(&pkgObs.cacheHits, 1)
		return d, ok, true
	}
	obsAdd(&pkgObs.cacheMisses, 1)
	return 0, false, false
}

// put stores d(u, v); ok=false records a definitive "no path".
func (c *RouteCache) put(u, v int32, d float64, ok bool) {
	k := cacheKey{u, v}
	s := c.shard(k)
	s.mu.Lock()
	s.store(k, d, ok)
	s.mu.Unlock()
}

// store inserts or refreshes an entry, evicting the LRU tail when the
// shard is full. Caller holds s.mu.
func (s *cacheShard) store(k cacheKey, d float64, ok bool) {
	if e, found := s.m[k]; found {
		e.dist, e.ok = d, ok
		s.moveToFront(e)
		return
	}
	if len(s.m) >= s.cap {
		lru := s.tail
		if lru != nil {
			s.unlink(lru)
			delete(s.m, lru.key)
		}
	}
	e := &cacheEntry{key: k, dist: d, ok: ok}
	s.m[k] = e
	s.pushFront(e)
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
