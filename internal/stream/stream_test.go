package stream

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestReordererRestoresOrder(t *testing.T) {
	r := NewReorderer[int](5)
	times := []float64{1, 3, 2, 6, 4, 5, 10, 8, 9, 12, 11, 20}
	var got []float64
	for i, tm := range times {
		for _, e := range r.Push(Event[int]{Time: tm, Value: i}) {
			got = append(got, e.Time)
		}
	}
	for _, e := range r.Flush() {
		got = append(got, e.Time)
	}
	if len(got) != len(times) {
		t.Fatalf("emitted %d of %d", len(got), len(times))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("not sorted: %v", got)
	}
	if r.LateCount() != 0 {
		t.Fatalf("late = %d", r.LateCount())
	}
}

func TestReordererDropsLate(t *testing.T) {
	r := NewReorderer[string](2)
	r.Push(Event[string]{Time: 100, Value: "a"}) // watermark -> 98
	if out := r.Push(Event[string]{Time: 50, Value: "late"}); out != nil {
		t.Fatalf("late event emitted: %v", out)
	}
	if r.LateCount() != 1 {
		t.Fatalf("late = %d", r.LateCount())
	}
	if r.watermark != 98 {
		t.Fatalf("watermark = %v", r.watermark)
	}
}

func TestReordererWatermarkReleases(t *testing.T) {
	r := NewReorderer[int](3)
	if out := r.Push(Event[int]{Time: 10}); len(out) != 0 {
		t.Fatal("event released before watermark passed it")
	}
	out := r.Push(Event[int]{Time: 14}) // watermark 11 > 10
	if len(out) != 1 || out[0].Time != 10 {
		t.Fatalf("release = %v", out)
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d", r.Pending())
	}
}

func TestReordererPropertySortedOutput(t *testing.T) {
	f := func(raw []float64, latenessRaw float64) bool {
		lateness := 1 + mod(latenessRaw, 10)
		r := NewReorderer[int](lateness)
		var got []float64
		for i, v := range raw {
			tm := mod(v, 1000)
			for _, e := range r.Push(Event[int]{Time: tm, Value: i}) {
				got = append(got, e.Time)
			}
		}
		for _, e := range r.Flush() {
			got = append(got, e.Time)
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mod(v float64, m float64) float64 {
	if v != v || v > 1e12 || v < -1e12 {
		return 0
	}
	x := v - float64(int64(v/m))*m
	if x < 0 {
		x += m
	}
	return x
}

func TestTumblingWindows(t *testing.T) {
	w := NewTumblingWindows[int](10)
	var closed []Window[int]
	for _, tm := range []float64{1, 4, 9, 12, 15, 31} {
		closed = append(closed, w.Push(Event[int]{Time: tm})...)
	}
	closed = append(closed, w.Flush()...)
	// Windows: [0,10) with 3 events, [10,20) with 2, [20,30) empty, [30,40) with 1.
	if len(closed) != 4 {
		t.Fatalf("windows = %d: %+v", len(closed), closed)
	}
	wantCounts := []int{3, 2, 0, 1}
	wantStarts := []float64{0, 10, 20, 30}
	for i, win := range closed {
		if len(win.Events) != wantCounts[i] {
			t.Fatalf("window %d count = %d", i, len(win.Events))
		}
		if win.Start != wantStarts[i] || win.End != wantStarts[i]+10 {
			t.Fatalf("window %d span = [%v,%v)", i, win.Start, win.End)
		}
	}
	if w.Flush() != nil {
		t.Fatal("double flush should be empty")
	}
}

func TestTumblingWindowsNegativeTimes(t *testing.T) {
	w := NewTumblingWindows[int](10)
	w.Push(Event[int]{Time: -15})
	closed := w.Push(Event[int]{Time: -2})
	if len(closed) != 1 || closed[0].Start != -20 || closed[0].End != -10 {
		t.Fatalf("negative window = %+v", closed)
	}
}

func TestReordererStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := NewReorderer[int](20)
	var emitted []float64
	base := 0.0
	total := 0
	for i := 0; i < 5000; i++ {
		base += rng.Float64() * 2
		tm := base + rng.Float64()*15 // disorder within 15 < lateness 20
		total++
		for _, e := range r.Push(Event[int]{Time: tm}) {
			emitted = append(emitted, e.Time)
		}
	}
	for _, e := range r.Flush() {
		emitted = append(emitted, e.Time)
	}
	if len(emitted)+r.LateCount() != total {
		t.Fatalf("lost events: %d + %d != %d", len(emitted), r.LateCount(), total)
	}
	if !sort.Float64sAreSorted(emitted) {
		t.Fatal("stress output not sorted")
	}
	if r.LateCount() != 0 {
		t.Fatalf("unexpected lates: %d", r.LateCount())
	}
}
