package stream

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// Regression: Flush must advance the watermark past the flushed
// events. Before the fix, a post-Flush Push with an event time between
// the old watermark and the flushed maximum was accepted and later
// emitted behind events already released, breaking the global-order
// guarantee.
func TestFlushAdvancesWatermark(t *testing.T) {
	r := NewReorderer[int](10)
	r.Push(Event[int]{Time: 0})
	r.Push(Event[int]{Time: 5}) // watermark now -5; both events buffered
	out := r.Flush()            // releases t=0 and t=5
	if len(out) != 2 {
		t.Fatalf("flushed %d events, want 2", len(out))
	}
	if wm := r.watermark; wm != 5 {
		t.Fatalf("post-flush watermark = %v, want 5 (max flushed time)", wm)
	}
	// t=2 sits between the old watermark (-5) and the flushed max (5):
	// accepting it would emit it behind the already-released t=5.
	if got := r.Push(Event[int]{Time: 2}); len(got) != 0 {
		t.Fatalf("pre-watermark event released: %v", got)
	}
	if r.Pending() != 0 {
		t.Fatalf("pre-watermark event buffered (pending=%d)", r.Pending())
	}
	if r.LateCount() != 1 {
		t.Fatalf("late = %d, want 1", r.LateCount())
	}
	// Global order must hold across the flush boundary: everything
	// emitted after the flush is at or after the flushed maximum.
	for _, tm := range []float64{6, 9, 30} {
		for _, e := range r.Push(Event[int]{Time: tm}) {
			if e.Time < 5 {
				t.Fatalf("event t=%v emitted behind flushed max 5", e.Time)
			}
		}
	}
	for _, e := range r.Flush() {
		if e.Time < 5 {
			t.Fatalf("event t=%v flushed behind earlier flush max 5", e.Time)
		}
	}
}

// Flushing an empty reorderer must not move the watermark.
func TestFlushEmptyKeepsWatermark(t *testing.T) {
	r := NewReorderer[int](3)
	r.Push(Event[int]{Time: 10}) // watermark 7
	r.Push(Event[int]{Time: 11}) // watermark 8, t=10 buffered... released? 10 > 8 so buffered
	r.Flush()
	wm := r.watermark
	if got := r.Flush(); len(got) != 0 {
		t.Fatalf("second flush released %v", got)
	}
	if r.watermark != wm {
		t.Fatalf("empty flush moved watermark %v -> %v", wm, r.watermark)
	}
}

// The inlined FNV-1a loop must assign every key to exactly the lane
// the old hash/fnv-based implementation chose.
func TestLaneForMatchesStdlibFNV(t *testing.T) {
	oldLane := func(key string, lanes int) int {
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return int(h.Sum32() % uint32(lanes))
	}
	keys := []string{"", "a", "veh-0", "sensor/12", "日本語キー", "\x00\xff"}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		keys = append(keys, string(b))
	}
	for _, lanes := range []int{1, 2, 3, 4, 7, 16, 64} {
		for _, k := range keys {
			if got, want := LaneFor(k, lanes), oldLane(k, lanes); got != want {
				t.Fatalf("LaneFor(%q, %d) = %d, old hasher = %d", k, lanes, got, want)
			}
		}
	}
}

// The hash itself must be allocation-free; per-event hasher allocation
// was the bug this pins.
func TestLaneForZeroAlloc(t *testing.T) {
	keys := []string{"veh-0", "veh-1", "sensor/12"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			_ = LaneFor(k, 8)
		}
	})
	if allocs != 0 {
		t.Fatalf("LaneFor allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkFanOut(b *testing.B) {
	events := make([]Event[int], 4096)
	keys := make([]string, len(events))
	for i := range events {
		events[i] = Event[int]{Time: float64(i), Value: i}
		keys[i] = fmt.Sprintf("src-%d", i%97)
	}
	key := func(e Event[int]) string { return keys[e.Value] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FanOut(events, 8, key)
	}
}
