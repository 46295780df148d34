package stream

import (
	"fmt"
	"reflect"
	"testing"
)

func keyedEvents(n, keys int) []Event[string] {
	out := make([]Event[string], n)
	for i := range out {
		out[i] = Event[string]{Time: float64(i), Value: fmt.Sprintf("k%d", i%keys)}
	}
	return out
}

func TestFanOutPreservesPerKeyOrderAndIsDeterministic(t *testing.T) {
	events := keyedEvents(1000, 13)
	key := func(e Event[string]) string { return e.Value }
	a := FanOut(events, 4, key)
	b := FanOut(events, 4, key)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same input fanned out differently across runs")
	}

	// Every event lands in exactly one lane, same-key events share a
	// lane, and each key's events keep their original (time) order.
	total := 0
	laneOf := map[string]int{}
	for l, lane := range a {
		total += len(lane)
		lastPerKey := map[string]float64{}
		for _, e := range lane {
			if prev, ok := laneOf[e.Value]; ok && prev != l {
				t.Fatalf("key %s split across lanes %d and %d", e.Value, prev, l)
			}
			laneOf[e.Value] = l
			if last, ok := lastPerKey[e.Value]; ok && e.Time < last {
				t.Fatalf("key %s reordered within lane %d", e.Value, l)
			}
			lastPerKey[e.Value] = e.Time
		}
	}
	if total != len(events) {
		t.Fatalf("fan-out lost events: %d of %d", total, len(events))
	}
	if len(laneOf) != 13 {
		t.Fatalf("saw %d keys, want 13", len(laneOf))
	}
}

func TestFanOutDegenerateLaneCounts(t *testing.T) {
	events := keyedEvents(50, 5)
	key := func(e Event[string]) string { return e.Value }
	one := FanOut(events, 0, key)
	if len(one) != 1 || !reflect.DeepEqual(one[0], events) {
		t.Fatal("lanes <= 0 must collapse to the identity single lane")
	}
	many := FanOut(events, 64, key)
	total := 0
	for _, lane := range many {
		total += len(lane)
	}
	if len(many) != 64 || total != len(events) {
		t.Fatalf("64-lane fan-out: %d lanes, %d events", len(many), total)
	}
}
