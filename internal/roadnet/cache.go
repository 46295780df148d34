package roadnet

import "sync"

// RouteCache is a sharded, set-associative cache of node-pair network
// distances — the (edge-head, edge-tail) routing core that map matching
// recomputes constantly. Map matching decomposes every snap-to-snap
// distance into
//
//	(1-ta)*len(ea) + d(ea.To, eb.From) + tb*len(eb)
//
// where only the middle term needs a graph search; the affine parameter
// terms are recomputed exactly per query. Caching d(u, v) therefore
// buckets all parameter positions on an edge pair into one entry
// without ever approximating a result.
//
// Each shard is one flat table — parallel key and distance arrays cut
// into fixed-width sets, each set kept in recency order — allocated
// once at construction: an entry costs no pointer and no allocation,
// and a full set drops its own least recently used pair. A pair is
// sharded by its source node alone, so one SnapDists row (one source,
// K heads) takes one lock for all its lookups and one for all its
// stores. Workers that miss the same pair at once each sweep and each
// store the same bits. "No path" is cached too, as +Inf (negative
// caching), which matters on directed grids where many candidate pairs
// are mutually unreachable.
type RouteCache struct {
	shards [cacheShards]cacheShard
}

const (
	cacheShards = 16
	// cacheWays is the set width: eight keys fill one cache line, so a
	// probe reads one line of keys and, on a hit, one distance.
	cacheWays = 8
	// emptyKey marks a free slot; no pair packs to it (node ids are
	// non-negative int32s).
	emptyKey = ^uint64(0)
)

// cacheShard is one independently locked table: set i is slots
// [i*ways, (i+1)*ways) of keys and dist. Within a set slot 0 is the
// most recently used pair and free slots, if any, are at the end.
type cacheShard struct {
	mu   sync.Mutex
	keys []uint64  // pairKey(u, v), or emptyKey
	dist []float64 // d(u, v); +Inf = definitively no path
	ways int
	sets uint64
	n    int // occupied slots
}

// NewRouteCache returns a cache holding up to capacity node-pair
// distances (split across shards; capacity < shard count is rounded
// up to one entry per shard).
func NewRouteCache(capacity int) *RouteCache {
	c := &RouteCache{}
	per := max(capacity/cacheShards, 1)
	ways := min(cacheWays, per)
	slots := per / ways * ways
	keys := make([]uint64, cacheShards*slots)
	for i := range keys {
		keys[i] = emptyKey
	}
	dist := make([]float64, len(keys))
	for i := range c.shards {
		s := &c.shards[i]
		s.keys, s.dist = keys[i*slots:(i+1)*slots], dist[i*slots:(i+1)*slots]
		s.ways, s.sets = ways, uint64(slots/ways)
	}
	return c
}

// Len returns the current number of cached entries.
func (c *RouteCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].n
		c.shards[i].mu.Unlock()
	}
	return n
}

func pairKey(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// shardOf returns the shard holding every pair whose source is u.
func (c *RouteCache) shardOf(u int32) *cacheShard {
	return &c.shards[uint32(u)*2654435761>>28] // Fibonacci hash, top 4 bits
}

// set returns the slots k may occupy.
func (s *cacheShard) set(k uint64) ([]uint64, []float64) {
	h := k * 0x9E3779B97F4A7C15 >> 32
	base := int(h*s.sets>>32) * s.ways
	return s.keys[base : base+s.ways], s.dist[base : base+s.ways]
}

// lookup returns the cached distance of pair k (+Inf = cached "no
// path") and makes it its set's most recent. Caller holds s.mu.
func (s *cacheShard) lookup(k uint64) (d float64, hit bool) {
	keys, dist := s.set(k)
	for i, have := range keys {
		if have == k {
			d = dist[i]
			toFront(keys, dist, i, k, d)
			return d, true
		}
	}
	return 0, false
}

// store records d as the distance of pair k at the front of its set,
// refreshing the pair if present and otherwise pushing the set's last
// slot — its least recently used pair once the set is full — out.
// It reports whether a pair was evicted. Caller holds s.mu.
func (s *cacheShard) store(k uint64, d float64) (evicted bool) {
	keys, dist := s.set(k)
	i := 0
	for i < len(keys)-1 && keys[i] != k {
		i++
	}
	switch keys[i] {
	case k:
	case emptyKey:
		s.n++
	default:
		evicted = true
	}
	toFront(keys, dist, i, k, d)
	return evicted
}

// toFront shifts slots [0, i) of a set one place back, over slot i,
// and puts (k, d) in slot 0.
func toFront(keys []uint64, dist []float64, i int, k uint64, d float64) {
	for ; i > 0; i-- {
		keys[i], dist[i] = keys[i-1], dist[i-1]
	}
	keys[0], dist[0] = k, d
}
