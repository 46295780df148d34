package roadnet

import (
	"math"
	"testing"
)

func TestRouteCacheGetPut(t *testing.T) {
	c := NewRouteCache(64)
	if _, _, hit := c.get(1, 2); hit {
		t.Fatal("empty cache reported a hit")
	}
	c.put(1, 2, 42.5, true)
	d, ok, hit := c.get(1, 2)
	if !hit || !ok || d != 42.5 {
		t.Fatalf("get(1,2) = (%v, %v, %v), want (42.5, true, true)", d, ok, hit)
	}
	// Negative entry: a cached "no path".
	c.put(3, 4, math.Inf(1), false)
	d, ok, hit = c.get(3, 4)
	if !hit || ok || !math.IsInf(d, 1) {
		t.Fatalf("negative get(3,4) = (%v, %v, %v), want (+Inf, false, true)", d, ok, hit)
	}
}

func TestRouteCacheLRUEviction(t *testing.T) {
	// Capacity below the shard count rounds up to one entry per shard:
	// inserting two keys that land in the same shard evicts the older.
	c := NewRouteCache(1)
	var shardOf = func(u, v int32) *cacheShard { return c.shard(cacheKey{u, v}) }
	// Find two distinct keys in the same shard.
	base := cacheKey{0, 0}
	s0 := shardOf(0, 0)
	var other cacheKey
	found := false
	for v := int32(1); v < 1000 && !found; v++ {
		if shardOf(0, v) == s0 {
			other = cacheKey{0, v}
			found = true
		}
	}
	if !found {
		t.Fatal("could not find two keys sharing a shard")
	}
	c.put(base.u, base.v, 1, true)
	c.put(other.u, other.v, 2, true)
	if _, _, hit := c.get(base.u, base.v); hit {
		t.Fatal("LRU entry survived eviction in a full shard")
	}
	if d, _, hit := c.get(other.u, other.v); !hit || d != 2 {
		t.Fatalf("most-recent entry missing after eviction: (%v, %v)", d, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestRouteCachePutRefreshesExisting(t *testing.T) {
	c := NewRouteCache(1)
	c.put(0, 0, 1, true)
	c.put(0, 0, 10, true) // overwrite must refresh, not evict or duplicate
	if d, _, hit := c.get(0, 0); !hit || d != 10 {
		t.Fatalf("refreshed entry = (%v, %v), want (10, true)", d, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}
