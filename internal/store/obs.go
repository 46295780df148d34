package store

// Store observability, mirroring the stream/roadnet pattern: package-
// level gated atomics for process-wide totals (one atomic bool load
// when unobserved), plus a cached histogram pointer for fsync latency
// so the group-commit path never does a registry lookup.

import (
	"sync"
	"sync/atomic"
	"time"

	"sidq/internal/obs"
)

var pkgObs struct {
	enabled atomic.Bool

	appends     atomic.Uint64 // records appended
	appendBytes atomic.Uint64 // payload bytes appended
	fsyncs      atomic.Uint64 // fsyncs issued
	fsyncErrs   atomic.Uint64 // fsyncs that failed (each poisons a log)
	seals       atomic.Uint64 // segments sealed into the manifest
	removed     atomic.Uint64 // sealed segments dropped by TruncateFront
	recoveries  atomic.Uint64 // Open recoveries performed
	recovered   atomic.Uint64 // records scanned by recoveries
	torn        atomic.Uint64 // torn tails truncated
	replays     atomic.Uint64 // Replay passes started
	readRecords atomic.Uint64 // record frames read back (ReadSeqs, ReadRange, Replay)
	readBytes   atomic.Uint64 // bytes of those frames
}

var fsyncHist atomic.Pointer[obs.Histogram]

// liveLogs tracks every open Log so the disk-footprint gauges can sum
// over them at scrape time. Registration is unconditional (not gated
// on pkgObs.enabled): a map insert per Open/Close is noise next to the
// file creation they bracket, and it means logs opened before
// InstrumentTo still show up in the gauges.
var liveLogs struct {
	mu   sync.Mutex
	logs map[*Log]struct{}
}

func registerLog(l *Log) {
	liveLogs.mu.Lock()
	if liveLogs.logs == nil {
		liveLogs.logs = make(map[*Log]struct{})
	}
	liveLogs.logs[l] = struct{}{}
	liveLogs.mu.Unlock()
}

func deregisterLog(l *Log) {
	liveLogs.mu.Lock()
	delete(liveLogs.logs, l)
	liveLogs.mu.Unlock()
}

// sumLiveSegments walks every open log's Segments() snapshot. Called
// only from registry scrapes, so taking each log's mutex briefly is
// fine; lock order is liveLogs.mu -> l.mu, and nothing under l.mu ever
// touches liveLogs.mu.
func sumLiveSegments() (bytes, segments float64) {
	liveLogs.mu.Lock()
	defer liveLogs.mu.Unlock()
	for l := range liveLogs.logs {
		for _, s := range l.Segments() {
			bytes += float64(s.Bytes)
			segments++
		}
	}
	return bytes, segments
}

// minLiveFirstSeq is the lowest retained seq across open logs — the
// oldest record still answerable from disk. 0 when no log is open.
func minLiveFirstSeq() float64 {
	liveLogs.mu.Lock()
	defer liveLogs.mu.Unlock()
	var min uint64
	for l := range liveLogs.logs {
		if first := l.FirstSeq(); min == 0 || first < min {
			min = first
		}
	}
	return float64(min)
}

func obsAppend(payloadBytes int) {
	if pkgObs.enabled.Load() {
		pkgObs.appends.Add(1)
		pkgObs.appendBytes.Add(uint64(payloadBytes))
	}
}

func obsFsync(d time.Duration, err error) {
	if !pkgObs.enabled.Load() {
		return
	}
	pkgObs.fsyncs.Add(1)
	if err != nil {
		pkgObs.fsyncErrs.Add(1)
		return
	}
	if h := fsyncHist.Load(); h != nil {
		h.Observe(d.Nanoseconds())
	}
}

func obsSeal() {
	if pkgObs.enabled.Load() {
		pkgObs.seals.Add(1)
	}
}

func obsRemoveSegments(n int) {
	if pkgObs.enabled.Load() {
		pkgObs.removed.Add(uint64(n))
	}
}

func obsRecovery(info *RecoveryInfo) {
	if pkgObs.enabled.Load() {
		pkgObs.recoveries.Add(1)
		pkgObs.recovered.Add(uint64(info.Records))
	}
}

func obsTornTruncation() {
	if pkgObs.enabled.Load() {
		pkgObs.torn.Add(1)
	}
}

func obsRead(records int, frameBytes int64) {
	if pkgObs.enabled.Load() {
		pkgObs.readRecords.Add(uint64(records))
		pkgObs.readBytes.Add(uint64(frameBytes))
	}
}

func obsReplay() {
	if pkgObs.enabled.Load() {
		pkgObs.replays.Add(1)
	}
}

// InstrumentTo enables process-wide store aggregation and registers
// the sidq_store_* families in reg. Totals cover every Log in the
// process from the first call on.
func InstrumentTo(reg *obs.Registry) {
	pkgObs.enabled.Store(true)
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
	counter := func(name string, v *atomic.Uint64) {
		reg.Func(name, obs.FuncCounter, func() float64 { return float64(v.Load()) })
	}
	counter("sidq_store_appends_total", &pkgObs.appends)
	counter("sidq_store_append_bytes_total", &pkgObs.appendBytes)
	counter("sidq_store_fsyncs_total", &pkgObs.fsyncs)
	counter("sidq_store_fsync_errors_total", &pkgObs.fsyncErrs)
	counter("sidq_store_segments_sealed_total", &pkgObs.seals)
	counter("sidq_store_segments_removed_total", &pkgObs.removed)
	counter("sidq_store_recoveries_total", &pkgObs.recoveries)
	counter("sidq_store_recovered_records_total", &pkgObs.recovered)
	counter("sidq_store_torn_truncations_total", &pkgObs.torn)
	counter("sidq_store_replays_total", &pkgObs.replays)
	counter("sidq_store_read_records_total", &pkgObs.readRecords)
	counter("sidq_store_read_bytes_total", &pkgObs.readBytes)
	reg.Func("sidq_store_disk_bytes", obs.FuncGauge, func() float64 {
		bytes, _ := sumLiveSegments()
		return bytes
	})
	reg.Func("sidq_store_segments", obs.FuncGauge, func() float64 {
		_, segs := sumLiveSegments()
		return segs
	})
	reg.Func("sidq_store_retained_seq", obs.FuncGauge, minLiveFirstSeq)
	fsyncHist.Store(reg.Histogram("sidq_store_fsync_ns"))
}
