package stream

import (
	"strings"
	"testing"

	"sidq/internal/obs"
)

func TestInstrumentToTracksReordererAndWindows(t *testing.T) {
	reg := obs.NewRegistry()
	InstrumentTo(reg)
	lateBefore := pkgObs.late.Load()
	emittedBefore := pkgObs.emitted.Load()
	windowsBefore := pkgObs.windows.Load()

	r := NewReorderer[int](1)
	r.Push(Event[int]{Time: 0, Value: 1})
	r.Push(Event[int]{Time: 5, Value: 2})  // watermark 4, releases t=0
	r.Push(Event[int]{Time: 2, Value: 3})  // below watermark: late
	r.Push(Event[int]{Time: 10, Value: 4}) // releases t=5
	r.Flush()                              // releases t=10

	if got := pkgObs.late.Load() - lateBefore; got != 1 {
		t.Errorf("late total delta = %d, want 1", got)
	}
	if got := pkgObs.emitted.Load() - emittedBefore; got != 3 {
		t.Errorf("emitted total delta = %d, want 3", got)
	}

	w := NewTumblingWindows[int](10)
	w.Push(Event[int]{Time: 1})
	w.Push(Event[int]{Time: 25}) // closes windows [0,10) and [10,20)
	w.Flush()                    // closes [20,30)
	if got := pkgObs.windows.Load() - windowsBefore; got != 3 {
		t.Errorf("windows closed delta = %d, want 3", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, fam := range []string{
		"sidq_stream_late_total",
		"sidq_stream_emitted_total",
		"sidq_stream_windows_closed_total",
		"sidq_stream_reorder_pending",
	} {
		if !strings.Contains(expo, fam+" ") {
			t.Errorf("exposition missing %s:\n%s", fam, expo)
		}
	}
}

func TestReorderPendingGaugeTracksBuffer(t *testing.T) {
	reg := obs.NewRegistry()
	InstrumentTo(reg)
	before := pkgObs.pending.Load()

	r := NewReorderer[int](100) // large lateness: nothing releases
	for i := 0; i < 5; i++ {
		r.Push(Event[int]{Time: float64(i)})
	}
	if got := pkgObs.pending.Load() - before; got != 5 {
		t.Errorf("pending delta after pushes = %d, want 5", got)
	}
	r.Flush()
	if got := pkgObs.pending.Load() - before; got != 0 {
		t.Errorf("pending delta after flush = %d, want 0", got)
	}
}
