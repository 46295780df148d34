package stream

// Stream observability. The operators here are single-goroutine by
// design (one Reorderer per lane), so per-instance counters stay plain
// ints; process-wide totals are aggregated into gated package atomics
// mirroring the roadnet pattern: until InstrumentTo flips the gate,
// every hook is one atomic bool load.

import (
	"sync/atomic"

	"sidq/internal/obs"
)

// pkgObs aggregates stream activity across every operator instance in
// the process once InstrumentTo has enabled it.
var pkgObs struct {
	enabled atomic.Bool

	late    atomic.Uint64 // events dropped as later than the watermark
	emitted atomic.Uint64 // events released in order (incl. flushes)
	windows atomic.Uint64 // tumbling windows closed
	pending atomic.Int64  // reorder-buffer occupancy, summed over reorderers
}

// obsCount bumps a gated package total by n.
func obsCount(c *atomic.Uint64, n uint64) {
	if pkgObs.enabled.Load() {
		c.Add(n)
	}
}

// obsPending moves the process-wide reorder-buffer occupancy by delta.
func obsPending(delta int64) {
	if pkgObs.enabled.Load() {
		pkgObs.pending.Add(delta)
	}
}

// InstrumentTo enables process-wide stream aggregation and registers
// the sidq_stream_* families in reg as callback series. Totals cover
// every Reorderer and TumblingWindows in the process from the first
// call on; the occupancy gauge counts only buffering activity after
// enablement (and clamps at zero for events buffered before it).
func InstrumentTo(reg *obs.Registry) {
	pkgObs.enabled.Store(true)
	reg.Help("sidq_stream_late_total", "Events dropped as later than the reorder watermark.")
	reg.Help("sidq_stream_emitted_total", "Events released in event-time order (including flushes).")
	reg.Help("sidq_stream_windows_closed_total", "Tumbling windows closed.")
	reg.Help("sidq_stream_reorder_pending", "Events currently buffered awaiting the watermark, across all reorderers.")
	reg.Func("sidq_stream_late_total", obs.FuncCounter, func() float64 { return float64(pkgObs.late.Load()) })
	reg.Func("sidq_stream_emitted_total", obs.FuncCounter, func() float64 { return float64(pkgObs.emitted.Load()) })
	reg.Func("sidq_stream_windows_closed_total", obs.FuncCounter, func() float64 { return float64(pkgObs.windows.Load()) })
	reg.Func("sidq_stream_reorder_pending", obs.FuncGauge, func() float64 {
		v := pkgObs.pending.Load()
		if v < 0 {
			v = 0
		}
		return float64(v)
	})
}
