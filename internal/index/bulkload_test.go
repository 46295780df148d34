package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sidq/internal/geo"
)

func TestBulkLoadMatchesIncremental(t *testing.T) {
	entries := randomEntries(2000, 1000, 20)
	rects := make([]RectEntry, len(entries))
	inc := NewRTree()
	for i, e := range entries {
		rects[i] = RectEntry{ID: e.ID, Rect: geo.RectFromCenter(e.Pos, 3, 3)}
		inc.Insert(rects[i])
	}
	bulk := BulkLoadRTree(rects)
	if bulk.Len() != len(rects) {
		t.Fatalf("len = %d", bulk.Len())
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		q := geo.RectFromCenter(
			geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
			rng.Float64()*150, rng.Float64()*150)
		a := bulk.Search(q)
		b := inc.Search(q)
		if len(a) != len(b) {
			t.Fatalf("trial %d: bulk %d vs incremental %d", trial, len(a), len(b))
		}
	}
	// kNN also agrees on distances.
	for trial := 0; trial < 20; trial++ {
		q := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		a := bulk.KNN(q, 5)
		b := inc.KNN(q, 5)
		for i := range a {
			if d := a[i].Dist - b[i].Dist; d > 1e-9 || d < -1e-9 {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, a[i].Dist, b[i].Dist)
			}
		}
	}
}

func TestBulkLoadEmptyAndSmall(t *testing.T) {
	if BulkLoadRTree(nil).Len() != 0 {
		t.Fatal("empty bulk load")
	}
	one := BulkLoadRTree([]RectEntry{{ID: "x", Rect: geo.RectFromCenter(geo.Pt(1, 1), 1, 1)}})
	if got := one.Search(geo.RectFromCenter(geo.Pt(1, 1), 5, 5)); len(got) != 1 {
		t.Fatalf("single entry search: %v", got)
	}
}

func TestBulkLoadInsertAfterLoad(t *testing.T) {
	rects := make([]RectEntry, 100)
	for i := range rects {
		rects[i] = RectEntry{ID: fmt.Sprintf("b%d", i), Rect: geo.RectFromCenter(geo.Pt(float64(i), 0), 1, 1)}
	}
	rt := BulkLoadRTree(rects)
	rt.Insert(RectEntry{ID: "late", Rect: geo.RectFromCenter(geo.Pt(50, 100), 1, 1)})
	got := rt.Search(geo.RectFromCenter(geo.Pt(50, 100), 5, 5))
	if len(got) != 1 || got[0].ID != "late" {
		t.Fatalf("post-load insert lost: %v", got)
	}
	if rt.Len() != 101 {
		t.Fatalf("len = %d", rt.Len())
	}
}

// tieHeavyEntries generates n rect entries with deliberately coarse
// (quantized) coordinates so many centers collide — the worst case for
// byte-identity of an unstable sort, which the total-order comparators
// must absorb.
func tieHeavyEntries(n int, seed int64) []RectEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]RectEntry, n)
	for i := range out {
		x := float64(rng.Intn(40)) * 25
		y := float64(rng.Intn(40)) * 25
		w := 1 + float64(rng.Intn(3))
		out[i] = RectEntry{ID: fmt.Sprintf("e%05d", i), Rect: geo.RectFromCenter(geo.Pt(x, y), w, w)}
	}
	return out
}

// TestBulkLoadPermutationInvariant pins BulkLoadRTree's total order:
// the packed tree is a pure function of the entry multiset, so any
// permutation of the input — including inputs full of comparator ties —
// yields a structurally identical tree (same nodes, same entry order),
// and the caller's slice is left untouched (the load sorts a copy).
func TestBulkLoadPermutationInvariant(t *testing.T) {
	for _, n := range []int{50, 1000, 12305} {
		entries := tieHeavyEntries(n, int64(n))
		orig := append([]RectEntry(nil), entries...)
		want := BulkLoadRTree(entries)
		if !reflect.DeepEqual(entries, orig) {
			t.Fatalf("n=%d: bulk load reordered the caller's slice", n)
		}
		rng := rand.New(rand.NewSource(int64(n) + 1))
		for trial := 0; trial < 4; trial++ {
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			if got := BulkLoadRTree(entries); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d shuffle %d: tree depends on input order", n, trial)
			}
		}
	}
}
