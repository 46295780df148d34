package store

// Store observability. Every Log counts its own appends, fsyncs, seals,
// removals and frame reads in atomics of its own, always on: an atomic
// add beside a memcpy or a disk read is noise. InstrumentTo exports one
// log's counters and disk gauges into a registry, so a second log in the
// same process never shows up in the first one's series.

import (
	"sync/atomic"
	"time"

	"sidq/internal/obs"
)

// counters are one log's running totals.
type counters struct {
	appends     atomic.Uint64 // records appended
	appendBytes atomic.Uint64 // payload bytes appended
	fsyncs      atomic.Uint64 // fsyncs issued
	fsyncErrs   atomic.Uint64 // fsyncs that failed (the first poisons the log)
	seals       atomic.Uint64 // segments sealed into the manifest
	removed     atomic.Uint64 // sealed segments dropped by TruncateFront
	replays     atomic.Uint64 // Replay passes started
	readRecords atomic.Uint64 // record frames read back (ReadSeqs, ReadRange, Replay)
	readBytes   atomic.Uint64 // bytes of those frames

	fsyncNs atomic.Pointer[obs.Histogram] // nil until InstrumentTo
}

func (c *counters) read(records int, frameBytes int64) {
	c.readRecords.Add(uint64(records))
	c.readBytes.Add(uint64(frameBytes))
}

func (c *counters) fsync(d time.Duration, err error) {
	c.fsyncs.Add(1)
	if err != nil {
		c.fsyncErrs.Add(1)
		return
	}
	if h := c.fsyncNs.Load(); h != nil {
		h.Observe(d.Nanoseconds())
	}
}

// InstrumentTo registers the sidq_store_* families of this log in reg.
// The counters cover the log's whole life, from its recovery in Open on;
// fsync latencies are observed from this call on.
func (l *Log) InstrumentTo(reg *obs.Registry) {
	reg.Help("sidq_store_appends_total", "Records appended to durable logs.")
	reg.Help("sidq_store_append_bytes_total", "Record payload bytes appended to durable logs.")
	reg.Help("sidq_store_fsyncs_total", "Fsyncs issued by durable logs (group commit shares them).")
	reg.Help("sidq_store_fsync_errors_total", "Fsyncs that failed; each poisons its log.")
	reg.Help("sidq_store_fsync_ns", "Fsync latency in nanoseconds.")
	reg.Help("sidq_store_segments_sealed_total", "Segments sealed into manifests.")
	reg.Help("sidq_store_segments_removed_total", "Sealed segments dropped by retention (TruncateFront).")
	reg.Help("sidq_store_recoveries_total", "Crash recoveries performed by Open.")
	reg.Help("sidq_store_recovered_records_total", "Records scanned from unsealed segments during recovery.")
	reg.Help("sidq_store_torn_truncations_total", "Torn tails truncated during recovery.")
	reg.Help("sidq_store_replays_total", "Full Replay passes started.")
	reg.Help("sidq_store_read_records_total", "Record frames read back from durable logs; against the records a reader asked for, the read amplification.")
	reg.Help("sidq_store_read_bytes_total", "Bytes of record frames read back from durable logs.")
	reg.Help("sidq_store_disk_bytes", "Bytes held by open durable logs (sealed segments plus active, including buffered writes).")
	reg.Help("sidq_store_segments", "Segment count across open durable logs (sealed plus active).")
	reg.Help("sidq_store_retained_seq", "Lowest WAL seq still on disk across open durable logs (the retention floor).")
	c := &l.c
	counter := func(name string, v *atomic.Uint64) {
		reg.Func(name, obs.FuncCounter, func() float64 { return float64(v.Load()) })
	}
	counter("sidq_store_appends_total", &c.appends)
	counter("sidq_store_append_bytes_total", &c.appendBytes)
	counter("sidq_store_fsyncs_total", &c.fsyncs)
	counter("sidq_store_fsync_errors_total", &c.fsyncErrs)
	counter("sidq_store_segments_sealed_total", &c.seals)
	counter("sidq_store_segments_removed_total", &c.removed)
	counter("sidq_store_replays_total", &c.replays)
	counter("sidq_store_read_records_total", &c.readRecords)
	counter("sidq_store_read_bytes_total", &c.readBytes)
	// A log is recovered once, by the Open that made it.
	torn := 0.0
	if l.recovered.TornBytes > 0 {
		torn = 1
	}
	fixed := func(name string, v float64) {
		reg.Func(name, obs.FuncCounter, func() float64 { return v })
	}
	fixed("sidq_store_recoveries_total", 1)
	fixed("sidq_store_recovered_records_total", float64(l.recovered.Records))
	fixed("sidq_store_torn_truncations_total", torn)
	reg.Func("sidq_store_disk_bytes", obs.FuncGauge, func() float64 {
		var bytes int64
		for _, s := range l.Segments() {
			bytes += s.Bytes
		}
		return float64(bytes)
	})
	reg.Func("sidq_store_segments", obs.FuncGauge, func() float64 { return float64(len(l.Segments())) })
	reg.Func("sidq_store_retained_seq", obs.FuncGauge, func() float64 { return float64(l.FirstSeq()) })
	c.fsyncNs.Store(reg.Histogram("sidq_store_fsync_ns"))
}
