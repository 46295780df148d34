package session

// Background retention + snapshot-aware compaction for the durable
// store: the subsystem that keeps a long-running server's WAL bounded
// on disk (DurabilityConfig.Retain / sidqserve -retain). The engine
// runs no loop of its own: the caller ticks Retain.
//
// Each pass computes the lowest WAL seq still needed and hands it to
// store.TruncateFront:
//
//   - The age floor: the pass samples (now, wal.LastSeq()) into a small
//     ring; once a sample is older than Retain, every seq at or below
//     its LastSeq is older than Retain too, so ageFloor is the highest
//     such sampled seq + 1. Sampling makes the time->seq mapping free —
//     no per-record timestamps, and at worst one pass of lag.
//   - The session floor: a live session needs nothing below its last
//     snapshot record (the snapshot supersedes them), falling back to
//     its open record before the first snapshot. A session whose floor
//     lags the age floor is compacted first: a forced snapshot rewrites
//     its old tail into the fresh (active) segment chain, so the old
//     segments stop being pinned. That is what "snapshot-aware
//     compaction" means here — the snapshot IS the rewrite.
//
// keepSeq = min(ageFloor, every live session's floor). Truncation is
// segment-granular (TruncateFront never splits a segment), so the
// retained window is always a superset of the last Retain of data.
// After truncation the history index drops entries below the log's new
// FirstSeq — only entries whose records actually left the disk, so the
// index always matches what History can still read.

import (
	"time"

	"sidq/internal/obs"
)

// retentionState is the registry's retention-pass bookkeeping.
type retentionState struct {
	samples []retentionSample // (time, lastSeq) ring, append order = time order
}

type retentionSample struct {
	t   time.Time
	seq uint64 // wal.LastSeq() at t: every seq <= this existed by t
}

// observe records one (now, lastSeq) sample and returns the age floor:
// the first seq NOT yet known older than retain. Called only under the
// engine's retainMu — Retain serializes passes, so two callers cannot
// race on the ring.
func (rs *retentionState) observe(now time.Time, lastSeq uint64, retain time.Duration) uint64 {
	rs.samples = append(rs.samples, retentionSample{t: now, seq: lastSeq})
	cut := now.Add(-retain)
	ageFloor := uint64(1)
	boundary := -1
	for i, s := range rs.samples {
		if s.t.After(cut) {
			break
		}
		if s.seq+1 > ageFloor {
			ageFloor = s.seq + 1
		}
		boundary = i
	}
	// Drop samples older than the boundary one; the boundary itself
	// stays so the floor never regresses between passes.
	if boundary > 0 {
		rs.samples = append(rs.samples[:0], rs.samples[boundary:]...)
	}
	return ageFloor
}

// RetentionStats reports what one retention pass did.
type RetentionStats struct {
	AgeFloor        uint64 // first seq younger than the retention horizon
	KeepSeq         uint64 // floor handed to TruncateFront (min of age + session floors)
	Compacted       int    // live sessions force-snapshotted to unpin old segments
	SegmentsRemoved int    // sealed segments dropped from the manifest
	HistoryTrimmed  int    // history-index entries removed below the new floor
	RetainedSeq     uint64 // wal.FirstSeq() after the pass
}

// Retain is one retention pass as of now: sample the clock->seq
// mapping, compact lagging sessions, truncate the WAL, trim the history
// index. now decides the age horizon and nothing else, so a caller with
// a made-up clock gets a deterministic pass. A no-op unless the engine
// is durable and configured with a Retain duration.
func (e *Engine) Retain(now time.Time) RetentionStats {
	var st RetentionStats
	wal := e.wal
	d := e.cfg.Durability
	if wal == nil || d.Retain <= 0 {
		return st
	}
	e.retainMu.Lock()
	defer e.retainMu.Unlock()

	st.AgeFloor = e.ret.observe(now, wal.LastSeq(), d.Retain)
	st.RetainedSeq = wal.FirstSeq()

	// Compact live sessions whose floor would pin segments the age
	// floor has released: a forced snapshot rewrites the session's old
	// tail into the active segment chain, after which nothing below the
	// snapshot seq is needed. Sessions already floored at or past the
	// age floor are left alone — compaction is work proportional to
	// lagging sessions, not to all sessions.
	keep := st.AgeFloor
	for _, ss := range e.live() {
		ss.mu.Lock()
		floor := ss.floorLocked()
		if !ss.closed && floor < st.AgeFloor {
			ss.snapshotLocked()
			if f := ss.floorLocked(); f != floor { // snapshot persisted
				floor = f
				st.Compacted++
				e.m.compactions.Inc()
				e.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionCompact, N: int(ss.chunkIdx)})
			}
		}
		ss.mu.Unlock()
		if floor < keep {
			keep = floor
		}
	}
	st.KeepSeq = keep

	removed, err := wal.TruncateFront(keep)
	st.SegmentsRemoved = removed
	if err != nil {
		// The manifest may still have committed (removed > 0): stale
		// files are swept by the next Open. Log and carry on — the next
		// pass retries.
		e.cfg.Logf("retention: truncate to %d: %v", keep, err)
	}
	st.RetainedSeq = wal.FirstSeq()

	// Trim the history index below what is actually left on disk (the
	// cut is segment-granular, so FirstSeq can be below keep) — the
	// index must keep answering for every record still readable.
	st.HistoryTrimmed = e.hist.removeBelow(st.RetainedSeq)
	if st.HistoryTrimmed > 0 {
		e.m.histTrimmed.Add(uint64(st.HistoryTrimmed))
	}
	if removed > 0 || st.HistoryTrimmed > 0 {
		e.trace(obs.TraceEvent{Name: "wal", Kind: obs.KindRetention, N: removed})
		e.cfg.Logf("retention: kept seq >= %d (age floor %d), removed %d segments, trimmed %d history entries, compacted %d sessions",
			st.RetainedSeq, st.AgeFloor, removed, st.HistoryTrimmed, st.Compacted)
	}
	return st
}

// floorLocked is the lowest WAL seq this session still needs for
// recovery. Caller holds ss.mu.
func (ss *streamSession) floorLocked() uint64 {
	if ss.snapSeq > 0 {
		return ss.snapSeq
	}
	return ss.openSeq
}
