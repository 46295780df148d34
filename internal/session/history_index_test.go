package session

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
)

// bruteSearch is the index's contract with no index: every entry whose
// box meets the rect and whose time span meets the range, in seq order.
func bruteSearch(chunks map[uint64][]Event, rect geo.Rect, minT, maxT float64) []uint64 {
	var seqs []uint64
	for seq, events := range chunks {
		if len(events) == 0 {
			continue
		}
		box := geo.RectFromPoints(events[0].Value.Pt.Pos)
		lo, hi := events[0].Value.Pt.T, events[0].Value.Pt.T
		for _, e := range events {
			box = box.ExtendPoint(e.Value.Pt.Pos)
			lo, hi = math.Min(lo, e.Value.Pt.T), math.Max(hi, e.Value.Pt.T)
		}
		if hi >= minT && lo <= maxT && box.Intersects(rect) {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// TestHistoryIndexMatchesBruteForce: chunks arriving out of time order,
// spans from an instant to most of the feed, coordinates out to
// MaxFloat64 (the R-tree this index replaced panicked on those), and
// queries whose bounds sit exactly on entry bounds — the run the index
// binary-searches must never cut off a candidate.
func TestHistoryIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := new(historyIndex)
		chunks := map[uint64][]Event{}
		var times []float64
		for seq := uint64(1); seq <= 300; seq++ {
			base := rng.Float64() * 1e4
			if seed%2 == 0 {
				base = 1.7e9 + float64(seq)*3 + rng.Float64()*20 // wall-clock sized, nearly ordered
			}
			span := math.Pow(10, rng.Float64()*4-2) // 0.01 .. 100
			var events []Event
			for r, rows := 0, 1+rng.Intn(5); r < rows; r++ {
				x, y := rng.Float64()*1000, rng.Float64()*1000
				if rng.Intn(50) == 0 {
					x = math.MaxFloat64 * (rng.Float64()*2 - 1)
				}
				events = append(events, ev("s", base+rng.Float64()*span, x, y))
				times = append(times, events[len(events)-1].Value.Pt.T)
			}
			chunks[seq] = events
			h.add(seq, events)
		}
		h.add(301, nil) // an empty chunk has no extent
		for i := 1; i < len(h.entries); i++ {
			if h.entries[i].minT < h.entries[i-1].minT {
				t.Fatalf("seed %d: entries out of minT order at %d", seed, i)
			}
		}
		all := geo.Rect{Min: geo.Pt(math.Inf(-1), math.Inf(-1)), Max: geo.Pt(math.Inf(1), math.Inf(1))}
		for q := 0; q < 400; q++ {
			a, b := times[rng.Intn(len(times))], times[rng.Intn(len(times))]
			minT, maxT := math.Min(a, b), math.Max(a, b)
			rect := all
			switch q % 4 {
			case 1:
				maxT = minT // one instant, exactly some row's time
			case 2:
				minT, maxT = math.Inf(-1), math.Inf(1)
				x, y := rng.Float64()*1000, rng.Float64()*1000
				rect = geo.Rect{Min: geo.Pt(x, y), Max: geo.Pt(x+rng.Float64()*300, y+rng.Float64()*300)}
			case 3:
				minT, maxT = math.Inf(1), math.Inf(1) // nothing is that late
			}
			got, want := h.search(rect, minT, maxT), bruteSearch(chunks, rect, minT, maxT)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d query %d rect %+v t [%v, %v]: got %v, want %v", seed, q, rect, minT, maxT, got, want)
			}
		}
		// Retention trims by seq, in place, and the survivors still answer.
		if removed := h.removeBelow(120); removed != 119 {
			t.Fatalf("seed %d: removeBelow(120) removed %d entries, want 119", seed, removed)
		}
		for seq := range chunks {
			if seq < 120 {
				delete(chunks, seq)
			}
		}
		var want []uint64
		for seq := uint64(120); seq <= 300; seq++ {
			want = append(want, seq)
		}
		if got := h.search(all, math.Inf(-1), math.Inf(1)); !slices.Equal(got, want) {
			t.Fatalf("seed %d: after removeBelow the full window returns %v", seed, got)
		}
		if removed := h.removeBelow(120); removed != 0 {
			t.Fatalf("seed %d: a second removeBelow(120) removed %d entries", seed, removed)
		}
		// maxSpan was retaken from the survivors: no candidate is lost.
		for q := 0; q < 200; q++ {
			a, b := times[rng.Intn(len(times))], times[rng.Intn(len(times))]
			minT, maxT := math.Min(a, b), math.Max(a, b)
			if got, want := h.search(all, minT, maxT), bruteSearch(chunks, all, minT, maxT); !slices.Equal(got, want) {
				t.Fatalf("seed %d: after removeBelow, t [%v, %v]: got %v, want %v", seed, minT, maxT, got, want)
			}
		}
	}
}

// TestHistoryIndexWideChunkAgesOut: one chunk spanning the whole log
// widens every search while it is indexed, and stops the moment
// retention drops it.
func TestHistoryIndexWideChunkAgesOut(t *testing.T) {
	h := new(historyIndex)
	h.add(1, []Event{ev("a", 0, 0, 0), ev("b", 1e6, 1, 1)}) // two clocks far apart
	for i := 2; i <= 100; i++ {
		h.add(uint64(i), []Event{ev("a", float64(i), 0, 0), ev("a", float64(i)+1, 1, 1)})
	}
	if h.maxSpan < 1e6 {
		t.Fatalf("maxSpan %v does not cover the wide chunk", h.maxSpan)
	}
	if removed := h.removeBelow(2); removed != 1 {
		t.Fatalf("removed %d entries, want 1", removed)
	}
	if h.maxSpan < 1 || h.maxSpan > 1.001 {
		t.Fatalf("maxSpan %v after the wide chunk aged out, want the survivors' 1s", h.maxSpan)
	}
	all := geo.Rect{Min: geo.Pt(math.Inf(-1), math.Inf(-1)), Max: geo.Pt(math.Inf(1), math.Inf(1))}
	if got := h.search(all, 50.5, 52); !slices.Equal(got, []uint64{50, 51, 52}) {
		t.Fatalf("search after age-out returned %v", got)
	}
	h.removeBelow(1000)
	if len(h.entries) != 0 || h.maxSpan != 0 {
		t.Fatalf("emptied index keeps %d entries, maxSpan %v", len(h.entries), h.maxSpan)
	}
}

// timeOrderedIndex holds n one-second chunks, one every second, each
// covering the whole city — the shape a live feed gives the index.
func timeOrderedIndex(n int) *historyIndex {
	h := new(historyIndex)
	for i := 0; i < n; i++ {
		t0 := float64(i)
		h.add(uint64(i+1), []Event{ev("a", t0, 0, 0), ev("b", t0+1, 1000, 1000)})
	}
	return h
}

// The same 30-second window near the end of 2 000 and of 20 000
// entries: the cost follows the window, not the log.
func BenchmarkHistoryIndexSearch(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			h := timeOrderedIndex(n)
			rect := geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(200, 200)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := h.search(rect, float64(n-100), float64(n-70)); len(got) != 32 {
					b.Fatalf("%d candidates", len(got))
				}
			}
		})
	}
}

// TestHistoryIndexSearchAllocatesPerCandidateOnly: ten times the
// entries outside the queried time range cost not one allocation more.
func TestHistoryIndexSearchAllocatesPerCandidateOnly(t *testing.T) {
	rect := geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(200, 200)}
	allocs := map[int]float64{}
	for _, n := range []int{2000, 20000} {
		h := timeOrderedIndex(n)
		allocs[n] = testing.AllocsPerRun(100, func() {
			if got := h.search(rect, float64(n-100), float64(n-70)); len(got) != 32 {
				t.Fatalf("%d entries: %d candidates, want 32", n, len(got))
			}
		})
	}
	if israce.Enabled {
		return
	}
	if allocs[20000] != allocs[2000] || allocs[2000] > 8 {
		t.Errorf("search allocates %v times over 2 000 entries and %v over 20 000; want the same handful (the result slice growing to 32 seqs)", allocs[2000], allocs[20000])
	}
}
