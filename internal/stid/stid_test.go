package stid

import (
	"testing"

	"sidq/internal/geo"
)

func sample() []Reading {
	return []Reading{
		{SensorID: "b", Pos: geo.Pt(10, 0), T: 2, Value: 20},
		{SensorID: "a", Pos: geo.Pt(0, 0), T: 1, Value: 10},
		{SensorID: "a", Pos: geo.Pt(0, 0), T: 0, Value: 5},
		{SensorID: "b", Pos: geo.Pt(10, 0), T: 5, Value: 25},
	}
}

func TestNewSeriesGroupsAndSorts(t *testing.T) {
	series := NewSeries(sample())
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	if series[0].SensorID != "a" || series[1].SensorID != "b" {
		t.Fatalf("order: %v %v", series[0].SensorID, series[1].SensorID)
	}
	a := series[0]
	if a.Readings[0].T != 0 || a.Readings[1].T != 1 {
		t.Fatal("series not time sorted")
	}
	if a.Pos != geo.Pt(0, 0) {
		t.Fatalf("series pos = %v", a.Pos)
	}
	if a.Readings[0].Value != 5 || a.Readings[1].Value != 10 {
		t.Fatalf("values = %v %v", a.Readings[0].Value, a.Readings[1].Value)
	}
	times := a.Times()
	if times[0] != 0 || times[1] != 1 {
		t.Fatalf("times = %v", times)
	}
}

func TestSeriesAt(t *testing.T) {
	series := NewSeries(sample())
	b := series[1] // readings at t=2 and t=5
	r, ok := b.At(3)
	if !ok || r.T != 2 {
		t.Fatalf("At(3) = %+v", r)
	}
	r, _ = b.At(4.1)
	if r.T != 5 {
		t.Fatalf("At(4.1) = %+v", r)
	}
	r, _ = b.At(-10)
	if r.T != 2 {
		t.Fatalf("At(-10) = %+v", r)
	}
	r, _ = b.At(100)
	if r.T != 5 {
		t.Fatalf("At(100) = %+v", r)
	}
	if _, ok := (Series{}).At(0); ok {
		t.Fatal("empty series At should be !ok")
	}
}

func TestTimeBoundsAndBounds(t *testing.T) {
	t0, t1, ok := TimeBounds(sample())
	if !ok || t0 != 0 || t1 != 5 {
		t.Fatalf("bounds %v %v %v", t0, t1, ok)
	}
	if _, _, ok := TimeBounds(nil); ok {
		t.Fatal("empty bounds should be !ok")
	}
}
