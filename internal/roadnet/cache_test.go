package roadnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
)

// cached reads pair (u, v) the way SnapDists does: under its shard's
// lock, refreshing its recency.
func (c *RouteCache) cached(u, v int32) (d float64, hit bool) {
	s := c.shardOf(u)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookup(pairKey(u, v))
}

func (c *RouteCache) put(u, v int32, d float64) (evicted bool) {
	s := c.shardOf(u)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store(pairKey(u, v), d)
}

func TestRouteCacheGetPut(t *testing.T) {
	c := NewRouteCache(64)
	if _, hit := c.cached(1, 2); hit {
		t.Fatal("empty cache reported a hit")
	}
	c.put(1, 2, 42.5)
	if d, hit := c.cached(1, 2); !hit || d != 42.5 {
		t.Fatalf("cached(1,2) = (%v, %v), want (42.5, true)", d, hit)
	}
	if _, hit := c.cached(2, 1); hit {
		t.Fatal("the reversed pair hit")
	}
	// Negative entry: a cached "no path".
	c.put(3, 4, math.Inf(1))
	if d, hit := c.cached(3, 4); !hit || !math.IsInf(d, 1) {
		t.Fatalf("negative cached(3,4) = (%v, %v), want (+Inf, true)", d, hit)
	}
}

func TestRouteCachePutRefreshesExisting(t *testing.T) {
	c := NewRouteCache(1)
	c.put(0, 0, 1)
	if c.put(0, 0, 10) { // overwrite must refresh, not evict or duplicate
		t.Fatal("refreshing a pair reported an eviction")
	}
	if d, hit := c.cached(0, 0); !hit || d != 10 {
		t.Fatalf("refreshed entry = (%v, %v), want (10, true)", d, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestRouteCacheLRUEviction fills one set past its width: the pair that
// goes is the set's least recently *used*, lookups counting as use, and
// every other set is untouched.
func TestRouteCacheLRUEviction(t *testing.T) {
	c := NewRouteCache(cacheShards * cacheWays * 4) // 4 sets a shard
	s := c.shardOf(0)
	setOf := func(v int32) *uint64 { keys, _ := s.set(pairKey(0, v)); return &keys[0] }
	// cacheWays+1 heads that share pair (0, 0)'s set, and one that does not.
	same, other := []int32{0}, int32(-1)
	for v := int32(1); len(same) <= cacheWays || other < 0; v++ {
		if setOf(v) == setOf(0) {
			same = append(same, v)
		} else if other < 0 {
			other = v
		}
	}
	c.put(0, other, 7)
	for _, v := range same[:cacheWays] {
		if c.put(0, v, float64(v)) {
			t.Fatalf("storing head %d into a set with room evicted", v)
		}
	}
	c.cached(0, same[0]) // the oldest store is now the most recent use
	if !c.put(0, same[cacheWays], 1) {
		t.Fatal("storing into a full set did not evict")
	}
	if _, hit := c.cached(0, same[1]); hit {
		t.Fatalf("head %d, the least recently used, survived", same[1])
	}
	for _, v := range append([]int32{other, same[0]}, same[2:]...) {
		if _, hit := c.cached(0, v); !hit {
			t.Fatalf("head %d was evicted; only the set's LRU may go", v)
		}
	}
	if got := c.Len(); got != cacheWays+1 {
		t.Fatalf("Len = %d, want %d", got, cacheWays+1)
	}
	// Capacity below the shard count rounds up to one entry per shard.
	if one := NewRouteCache(1); !(!one.put(0, 1, 1) && one.put(0, 2, 2)) || one.Len() != 1 {
		t.Fatalf("one-entry shard: Len = %d after two stores, want 1 and one eviction", one.Len())
	}
}

// islandCity is a GridCity plus a one-way stub nothing leads into, and
// an engine over it whose route cache holds capacity pairs.
func islandCity(seed int64, capacity int) (*Graph, *Engine, EdgeID) {
	g := GridCity(GridCityOptions{NX: 9, NY: 9, Spacing: 100, Jitter: 10, RemoveFrac: 0.25, Seed: seed})
	island := g.AddEdge(g.AddNode(geo.Pt(-500, -500)), g.AddNode(geo.Pt(-400, -500)), 10)
	e := g.BuildEngine()
	e.cache = NewRouteCache(capacity)
	return g, e, island
}

// randomRow is a SnapDists query over g: five random candidates, one
// sharing a head with the first, one on the island edge.
func randomRow(rng *rand.Rand, island EdgeID) (Snap, []Snap) {
	snap := func() Snap { return Snap{Edge: EdgeID(rng.Intn(int(island))), Param: rng.Float64()} }
	bs := []Snap{snap(), snap(), snap(), snap(), snap(), {}, {Edge: island, Param: 0.5}}
	bs[5] = Snap{Edge: bs[0].Edge, Param: rng.Float64()}
	return snap(), bs
}

// wantRow is SnapDists' documented arithmetic over ShortestPath: a
// pair the cache had (hit[j]) is answered whatever the bound is, a
// swept one only within it.
func wantRow(g *Graph, a Snap, bs []Snap, maxCost float64, hit []bool) []float64 {
	ea := g.Edge(a.Edge)
	rem := (1 - a.Param) * ea.Length
	want := make([]float64, len(bs))
	for j, b := range bs {
		eb := g.Edge(b.Edge)
		if b.Edge == a.Edge && b.Param >= a.Param {
			want[j] = (b.Param - a.Param) * ea.Length
		} else if p, err := g.ShortestPath(ea.To, eb.From); err != nil || !hit[j] && p.Dist > maxCost-rem {
			want[j] = math.Inf(1)
		} else {
			want[j] = rem + p.Dist + b.Param*eb.Length
		}
	}
	return want
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestRouteCacheExactUnderEviction runs random rows, bounded and
// unbounded, through an engine whose cache holds 16 pairs, so nearly
// every store evicts: whatever is hit, swept, evicted or re-swept, each
// answer is the bits the ShortestPath reference gives, the cache never
// exceeds its capacity, and "no path" to the island is cached by
// unbounded sweeps only.
func TestRouteCacheExactUnderEviction(t *testing.T) {
	for _, capacity := range []int{16, 256} { // one-slot sets, then two 8-way sets a shard
		testExactUnderEviction(t, capacity)
	}
}

func testExactUnderEviction(t *testing.T, capacity int) {
	g, e, island := islandCity(77, capacity)
	rng := rand.New(rand.NewSource(78))
	out, hit := make([]float64, 7), make([]bool, 7)
	isle := int32(g.Edge(island).From)
	hits := 0
	for i := 0; i < 2000; i++ {
		a, bs := randomRow(rng, island)
		if i%64 != 0 { // mostly a small hot set, so rows hit as well as miss
			a.Edge, bs[1].Edge, bs[2].Edge = a.Edge%5, bs[1].Edge%7, bs[2].Edge%3
		}
		maxCost := math.Inf(1)
		if i%3 == 0 {
			maxCost = (1-a.Param)*g.Edge(a.Edge).Length + 250
		}
		u := int32(g.Edge(a.Edge).To)
		for j, b := range bs {
			if _, hit[j] = e.cache.cached(u, int32(g.Edge(b.Edge).From)); hit[j] {
				hits++
			}
		}
		e.SnapDists(a, bs, maxCost, out)
		if want := wantRow(g, a, bs, maxCost, hit); !sameBits(out, want) {
			t.Fatalf("row %d (bound %v): SnapDists = %v, want %v", i, maxCost, out, want)
		}
		if n := e.cache.Len(); n > capacity {
			t.Fatalf("row %d: cache holds %d pairs, capacity %d", i, n, capacity)
		}
		// TestSnapDistsMatchesContract's rule: a truncated sweep proves
		// nothing about the island, an unbounded one records "no path".
		d, now := e.cache.cached(u, isle)
		if now && !math.IsInf(d, 1) || !hit[6] && now != math.IsInf(maxCost, 1) {
			t.Fatalf("row %d (bound %v): island cached = %v (d %v), was %v", i, maxCost, now, d, hit[6])
		}
	}
	if hits < 1000 {
		t.Fatalf("capacity %d: only %d of 14000 lookups hit: the rows do not exercise the cache", capacity, hits)
	}
}

// TestConcurrentSnapDistsTinyCacheHammer shares one engine whose cache
// holds 16 pairs between 8 goroutines, so lookups, move-to-fronts,
// stores and evictions of the same sets interleave; every answer is
// still the serial reference's bits. Under -race this is the flat
// table's data-race gate.
func TestConcurrentSnapDistsTinyCacheHammer(t *testing.T) {
	g, e, island := islandCity(91, 16)
	type row struct {
		a    Snap
		bs   []Snap
		want []float64
	}
	rng := rand.New(rand.NewSource(92))
	rows := make([]row, 48)
	for i := range rows {
		a, bs := randomRow(rng, island)
		a.Edge %= 6 // few sources: the goroutines meet in the same shards
		rows[i] = row{a, bs, wantRow(g, a, bs, math.Inf(1), make([]bool, len(bs)))}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]float64, 7)
			for r := 0; r < 40; r++ {
				for i := range rows {
					q := rows[(i*(w+1)+r)%len(rows)]
					e.SnapDists(q.a, q.bs, math.Inf(1), out)
					if !sameBits(out, q.want) {
						t.Errorf("worker %d: SnapDists = %v, want %v", w, out, q.want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := e.cache.Len(); n > 16 {
		t.Fatalf("cache holds %d pairs, capacity 16", n)
	}
}

// TestSnapDistsWarmRowAllocFree pins the hit path: a row the cache
// answers in full allocates nothing — an entry is two array slots.
func TestSnapDistsWarmRowAllocFree(t *testing.T) {
	g, e, island := islandCity(5, 1024)
	a, bs := randomRow(rand.New(rand.NewSource(6)), island)
	out := make([]float64, len(bs))
	e.SnapDists(a, bs, math.Inf(1), out) // fill
	want := wantRow(g, a, bs, math.Inf(1), make([]bool, len(bs)))
	allocs := testing.AllocsPerRun(100, func() { e.SnapDists(a, bs, math.Inf(1), out) })
	if allocs != 0 && !israce.Enabled {
		t.Errorf("warm all-hit row allocated %v times per run, want 0", allocs)
	}
	if !sameBits(out, want) {
		t.Errorf("warm row = %v, want %v", out, want)
	}
}
