package stream

// The serving path keeps its lane slices and each reorderer its release
// batch between calls. These tests pin what that reuse must not change
// (the emitted sequence) and what it buys (no allocation once warm).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sidq/internal/israce"
)

// copyingReorderer is the reorderer as it was before it owned its
// release batch: every Push and Flush returns a fresh copy.
type copyingReorderer struct {
	lateness, watermark float64
	buf                 []Event[int]
}

func (r *copyingReorderer) push(e Event[int]) []Event[int] {
	if e.Time < r.watermark {
		return nil
	}
	i := sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Time > e.Time })
	r.buf = append(r.buf, Event[int]{})
	copy(r.buf[i+1:], r.buf[i:])
	r.buf[i] = e
	if wm := e.Time - r.lateness; wm > r.watermark {
		r.watermark = wm
	}
	n := sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Time > r.watermark })
	out := append([]Event[int](nil), r.buf[:n]...)
	r.buf = r.buf[:copy(r.buf, r.buf[n:])]
	return out
}

func (r *copyingReorderer) flush() []Event[int] {
	out := append([]Event[int](nil), r.buf...)
	if n := len(out); n > 0 && out[n-1].Time > r.watermark {
		r.watermark = out[n-1].Time
	}
	r.buf = r.buf[:0]
	return out
}

// TestReordererHammerMatchesCopyingReference: over seeded disorder,
// with flushes mid-stream, a consumer that reads each batch before the
// next call sees exactly what the copying reorderer emits — and a batch
// it kept past the next call is the only thing that may have changed.
func TestReordererHammerMatchesCopyingReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lateness := float64(rng.Intn(6))
		re := NewReorderer[int](lateness)
		ref := &copyingReorderer{lateness: lateness, watermark: negInf}
		var got, want []Event[int]
		for i := 0; i < 2000; i++ {
			if rng.Intn(200) == 0 {
				got = append(got, re.Flush()...)
				want = append(want, ref.flush()...)
				continue
			}
			e := Event[int]{Time: float64(i/3) + float64(rng.Intn(9)) - 4, Value: i}
			got = append(got, re.Push(e)...)
			want = append(want, ref.push(e)...)
		}
		got = append(got, re.Flush()...)
		want = append(want, ref.flush()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %d events emitted, the copying reference emits %d (or another order)", seed, len(got), len(want))
		}
		if st := re.State(); len(st.Buf) != 0 || re.Pending() != 0 {
			t.Fatalf("seed %d: a flushed reorderer reports %d pending, state carries %d", seed, re.Pending(), len(st.Buf))
		}
	}
}

// State must describe the pending buffer only: the release batch a
// Flush hands out is the previous buffer, and none of it may leak into
// a snapshot or come back after a restore.
func TestReordererStateCarriesNoReleaseScratch(t *testing.T) {
	re := NewReorderer[int](100)
	for i := 0; i < 8; i++ {
		re.Push(Event[int]{Time: float64(i), Value: i})
	}
	if n := len(re.Flush()); n != 8 {
		t.Fatalf("flushed %d events, want 8", n)
	}
	re.Push(Event[int]{Time: 50, Value: 50})
	st := re.State()
	if len(st.Buf) != 1 || st.Buf[0].Value != 50 {
		t.Fatalf("state buffer %v, want the one pending event", st.Buf)
	}
	if out := NewReordererFromState(st).Flush(); len(out) != 1 || out[0].Value != 50 {
		t.Fatalf("restored reorderer flushed %v, want the one pending event", out)
	}
}

// Once its buffers have seen their largest batch a reorderer allocates
// nothing per event, and neither does a fan-out into kept lanes.
func TestWarmPushAndFanOutIntoAllocateNothing(t *testing.T) {
	re := NewReorderer[int](5)
	next := 0
	push := func() {
		for i := 0; i < 256; i++ {
			re.Push(Event[int]{Time: float64(next), Value: next})
			next++
		}
	}
	push()
	if allocs := testing.AllocsPerRun(20, push); allocs != 0 && !israce.Enabled {
		t.Errorf("Reorderer.Push allocates %v times per 256 in-order events once warm, want 0", allocs)
	}

	events := make([]Event[int], 256)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("veh-%02d", i)
	}
	for i := range events {
		events[i] = Event[int]{Time: float64(i), Value: i % len(keys)}
	}
	key := func(e Event[int]) string { return keys[e.Value] }
	lanes := FanOutInto(nil, events, 4, key)
	if want := FanOut(events, 4, key); !reflect.DeepEqual(lanes, want) {
		t.Fatal("FanOutInto(nil, ...) and FanOut partition differently")
	}
	allocs := testing.AllocsPerRun(20, func() { lanes = FanOutInto(lanes, events, 4, key) })
	if allocs != 0 && !israce.Enabled {
		t.Errorf("FanOutInto allocates %v times per batch into warm lanes, want 0", allocs)
	}
	// Fewer lanes than dst holds, then more: truncated, regrown, refilled.
	if got := FanOutInto(lanes, events, 2, key); !reflect.DeepEqual(got, FanOut(events, 2, key)) {
		t.Fatal("FanOutInto into a longer dst differs from FanOut")
	}
	if got := FanOutInto(lanes[:2], events, 7, key); !reflect.DeepEqual(got, FanOut(events, 7, key)) {
		t.Fatal("FanOutInto into a shorter dst differs from FanOut")
	}
}
