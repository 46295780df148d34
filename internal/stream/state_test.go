package stream

import (
	"math/rand"
	"testing"
)

// TestReordererStateRoundTrip: snapshot mid-stream, restore, then feed
// both the original and the restored reorderer an identical suffix —
// releases, late drops, and counters must match exactly at every cut
// point.
func TestReordererStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	events := make([]Event[int], 200)
	now := 0.0
	for i := range events {
		now += rng.Float64() * 2
		// Jittered event times create both reordering and late drops.
		events[i] = Event[int]{Time: now + (rng.Float64()-0.5)*8, Value: i}
	}
	for cut := 0; cut <= len(events); cut += 17 {
		orig := NewReorderer[int](3)
		for _, e := range events[:cut] {
			orig.Push(e)
		}
		restored := NewReordererFromState(orig.State())
		if restored.watermark != orig.watermark || restored.Pending() != orig.Pending() ||
			restored.LateCount() != orig.LateCount() || restored.emitted != orig.emitted {
			t.Fatalf("cut %d: restored counters diverge", cut)
		}
		var a, b []Event[int]
		for _, e := range events[cut:] {
			a = append(a, orig.Push(e)...)
			b = append(b, restored.Push(e)...)
		}
		a = append(a, orig.Flush()...)
		b = append(b, restored.Flush()...)
		if len(a) != len(b) {
			t.Fatalf("cut %d: released %d vs %d events", cut, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cut %d: release %d diverged: %+v vs %+v", cut, i, a[i], b[i])
			}
		}
		if restored.LateCount() != orig.LateCount() || restored.emitted != orig.emitted {
			t.Fatalf("cut %d: final counters diverge", cut)
		}
	}
}

// TestReordererStateEmpty: a fresh reorderer round-trips, including
// the -Inf initial watermark.
func TestReordererStateEmpty(t *testing.T) {
	r := NewReorderer[string](5)
	r2 := NewReordererFromState(r.State())
	if r2.watermark != r.watermark {
		t.Fatalf("watermark %v != %v", r2.watermark, r.watermark)
	}
	out := r2.Push(Event[string]{Time: -1e12, Value: "x"})
	if r2.LateCount() != 0 || len(out) != 0 || r2.Pending() != 1 {
		t.Fatal("restored empty reorderer mishandled a very old first event")
	}
}

// TestReordererStateIsolation: State is the live buffer, read in place;
// a reorderer restored from it owns a copy, so neither side's later
// writes reach the other.
func TestReordererStateIsolation(t *testing.T) {
	r := NewReorderer[int](10)
	r.Push(Event[int]{Time: 1, Value: 1})
	r.Push(Event[int]{Time: 2, Value: 2})
	st := r.State()
	if &st.Buf[0] != &r.buf[0] {
		t.Fatal("State copied the buffer")
	}
	restored := NewReordererFromState(st)
	st.Buf[0].Value = 99
	if restored.buf[0].Value == 99 {
		t.Fatal("the restored reorderer aliases the state it was built from")
	}
	restored.buf[1].Value = -1
	if r.buf[1].Value == -1 {
		t.Fatal("the restored reorderer aliases the live one")
	}
}
