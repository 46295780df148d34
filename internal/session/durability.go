package session

// Stream-session durability: every accepted ingest chunk is persisted
// to a segmented WAL (internal/store) BEFORE the ack is written, and
// sessions periodically checkpoint their full processing state
// (reorder buffers, watermarks, matcher lattices) as snapshot records.
// A restarted server replays the log through the same state machine
// the live path uses, so a kill -9 mid-ingest resumes the sessions
// exactly where the durable log ends: no accepted row is lost, no row
// is applied twice (chunks carry a per-session index; client retries
// dedup on an optional ?seq=), and drains are logged so replay
// re-emits and discards what was already delivered.
//
// WAL record types (the WAL is an internal file format versioned with
// the binary). Every record written is an SQC payload — the chunk's
// layout is in chunkrec.go, the others' in sessionrec.go — appended
// straight from live state into a pooled buffer:
//
//	recChunk2         one accepted ingest chunk, in apply order
//	recSessionOpen2   a session was created
//	recDrain2         a results drain was delivered (replay discards)
//	recSessionClose2  the session was closed or evicted
//	recSnapshot2      full session state; supersedes earlier records
//
// Types 1–5 are the gob records of earlier builds: read, never written
// (legacy.go).
//
// Per-session records are appended while holding the session mutex,
// so per-session WAL order is exactly apply order — replay is a pure
// fold. History range queries (history.go) are served from the same
// chunk records through a time-keyed chunk-extent index.

import (
	"fmt"
	"time"

	"sidq/internal/obs"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/uncertain"
)

// WAL record types. 1–5 are legacy gob, never written.
const (
	recSessionOpen   byte = 1
	recChunk         byte = 2
	recDrain         byte = 3
	recSessionClose  byte = 4
	recSnapshot      byte = 5
	recChunk2        byte = 6
	recSessionOpen2  byte = 7
	recDrain2        byte = 8
	recSessionClose2 byte = 9
	recSnapshot2     byte = 10
)

// DurabilityConfig enables the durable trajectory store. Zero Dir
// leaves the engine memory-only.
type DurabilityConfig struct {
	Dir           string          // WAL directory; "" disables durability
	Fsync         store.FsyncMode // when chunks become durable (zero value FsyncAlways; the CLI flag defaults to batch)
	SnapshotEvery int             // chunks between session snapshots (default 16)
	SegmentBytes  int64           // segment roll size, for tests (default store's)
	FS            store.FS        // filesystem, injectable for crash tests (default OS)

	// Retention (retention.go). Retain bounds the WAL on disk: records
	// older than Retain are dropped once no live session still needs
	// them for recovery (sessions are compacted — force-snapshotted —
	// first, so a long-lived session cannot pin old segments forever).
	// 0 keeps everything (the pre-retention behavior).
	Retain      time.Duration
	RetainEvery time.Duration // how often the caller should run Retain (default Retain/4, clamped to [1s, 30s])
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 16
	}
	if c.Retain > 0 && c.RetainEvery <= 0 {
		c.RetainEvery = c.Retain / 4
		if c.RetainEvery < time.Second {
			c.RetainEvery = time.Second
		}
		if c.RetainEvery > 30*time.Second {
			c.RetainEvery = 30 * time.Second
		}
	}
	return c
}

// persist appends one record, which fill renders by appending to the
// pooled buffer it is handed; Append copies the payload, so the buffer
// goes straight back.
func (e *Engine) persist(typ byte, fill func(b []byte) []byte) (uint64, error) {
	enc := getRecEncoder()
	enc.buf = fill(enc.buf[:0])
	seq, err := e.appendRec(typ, enc.buf)
	enc.release()
	return seq, err
}

// appendRec appends one encoded record, wrapping a failure in
// ErrDurability.
func (e *Engine) appendRec(typ byte, payload []byte) (uint64, error) {
	seq, err := e.wal.Append(typ, payload)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return seq, nil
}

// persistChunkLocked writes the chunk record and indexes its extent
// for history queries. Caller holds ss.mu.
func (ss *streamSession) persistChunkLocked(events []Event, clientSeq uint64) error {
	enc := getRecEncoder()
	seq, err := ss.e.appendRec(recChunk2, enc.chunk(ss.id, ss.chunkIdx+1, clientSeq, events))
	enc.release()
	if err != nil {
		return err
	}
	ss.e.hist.add(seq, events)
	return nil
}

// snapshotLocked checkpoints the session into the WAL. A failure is
// logged, not returned: the records the snapshot would summarize are
// already durable, so the session stays correct — only recovery gets
// slower (and the poisoned log fails the next ingest anyway).
func (ss *streamSession) snapshotLocked() {
	e := ss.e
	seq, err := e.persist(recSnapshot2, ss.appendSnapshotLocked)
	if err != nil {
		e.cfg.Logf("stream session %s: snapshot failed: %v", ss.id, err)
		return
	}
	ss.sinceSnap = 0
	ss.snapSeq = seq // everything below seq is now superseded for this session
	e.m.snapshots.Inc()
	e.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionSnapshot, N: ss.pendingReorderLocked()})
}

// persistCloseLocked logs the session close; best-effort (the session
// is going away regardless — a replay resurrecting it only costs the
// idle janitor one eviction).
func (ss *streamSession) persistCloseLocked(evicted bool) {
	if _, err := ss.e.persist(recSessionClose2, func(b []byte) []byte { return appendFlagRec(b, ss.id, evicted) }); err != nil {
		ss.e.cfg.Logf("stream session %s: close record failed: %v", ss.id, err)
	}
}

// --- recovery ------------------------------------------------------

// sessionSeq extracts the numeric suffix of a session id ("st-000042"
// -> 42, 0 if unparsable) so restored registries keep ids unique.
func sessionSeq(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "st-%d", &n); err != nil {
		return 0
	}
	return n
}

// Open builds the engine and, when cfg.Durability.Dir is set, opens
// the durable store and recovers from it before returning: the torn
// tail is truncated, sessions are rebuilt from snapshots and chunk
// replay, and the history index is repopulated.
func Open(cfg Config) (*Engine, error) {
	e := New(cfg)
	d := e.cfg.Durability
	if d.Dir == "" {
		return e, nil
	}
	l, info, err := store.Open(d.Dir, store.Options{FS: d.FS, Fsync: d.Fsync, SegmentBytes: d.SegmentBytes})
	if err != nil {
		return nil, fmt.Errorf("open durable store %s: %w", d.Dir, err)
	}
	if info.TornBytes > 0 || info.AdoptedSegments > 0 || info.DiscardedSegments > 0 || info.StaleFiles > 0 {
		e.cfg.Logf("wal %s: recovery truncated %d torn bytes, adopted %d / discarded %d segments, swept %d stale files",
			d.Dir, info.TornBytes, info.AdoptedSegments, info.DiscardedSegments, info.StaleFiles)
	}
	if err := e.recoverFrom(l); err != nil {
		l.Close()
		return nil, err
	}
	return e, nil
}

// recoverFrom replays the WAL through the live apply path, rebuilding
// sessions and the history index, then adopts l as the engine's durable
// log and registers its sidq_store_* families. It runs before Open
// returns the engine, so it takes no locks the apply path does not take
// itself. The one clock reading is its own start: what its elapsed time
// is measured from, and when every restored session was last active.
func (e *Engine) recoverFrom(l *store.Log) error {
	start := time.Now()
	records := 0
	err := l.Replay(func(r store.Record) error {
		records++
		switch r.Type {
		case recSessionOpen, recSessionOpen2:
			o, err := decodeOpen(r)
			if err != nil {
				return fmt.Errorf("record %d (open): %w", r.Seq, err)
			}
			if _, ok := e.sessions[o.Session]; !ok {
				ss := e.newSession(o.Session, o.Lateness, o.MaxSpeed, o.Lanes, start)
				ss.openSeq = r.Seq
				e.restore(ss)
			}
		case recChunk, recChunk2:
			c, err := decodeChunk(r)
			if err != nil {
				return fmt.Errorf("record %d (chunk): %w", r.Seq, err)
			}
			// History outlives sessions: index every chunk, even ones
			// whose session is already closed.
			e.hist.add(r.Seq, c.events)
			if ss, ok := e.sessions[c.session]; ok {
				ss.replayChunk(c)
			}
		case recDrain, recDrain2:
			d, err := decodeDrain(r)
			if err != nil {
				return fmt.Errorf("record %d (drain): %w", r.Seq, err)
			}
			if ss, ok := e.sessions[d.Session]; ok {
				// Re-run and discard: these results were already
				// delivered to the client before the crash.
				ss.mu.Lock()
				ss.drainLocked(d.Flush)
				ss.mu.Unlock()
			}
		case recSessionClose, recSessionClose2:
			c, err := decodeClose(r)
			if err != nil {
				return fmt.Errorf("record %d (close): %w", r.Seq, err)
			}
			if ss, ok := e.sessions[c.Session]; ok {
				ss.closed = true
				e.unlink(ss)
			}
		case recSnapshot, recSnapshot2:
			snap, err := decodeSnapshot(r)
			if err != nil {
				return fmt.Errorf("record %d (snapshot): %w", r.Seq, err)
			}
			if err := e.restoreSnapshot(snap, start, r.Seq); err != nil {
				return fmt.Errorf("record %d (snapshot): %w", r.Seq, err)
			}
		default:
			return fmt.Errorf("record %d: unknown type %d", r.Seq, r.Type)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	e.m.replayed.Add(uint64(records))
	e.wal = l
	reg := e.cfg.Metrics
	l.InstrumentTo(reg)
	reg.Help(mStoreCompactions, "Live sessions force-snapshotted by retention so their old WAL tail becomes droppable.")
	e.m.compactions = reg.Counter(mStoreCompactions)
	e.trace(obs.TraceEvent{Name: "wal", Kind: obs.KindWALReplay, Dur: time.Since(start), N: records})
	if records > 0 {
		e.cfg.Logf("wal: replayed %d records, %d sessions live, in %s",
			records, len(e.sessions), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// restore puts a session rebuilt from the log into the table (over an
// earlier incarnation of itself, if any) and keeps new ids above it.
func (e *Engine) restore(ss *streamSession) {
	if _, existed := e.sessions[ss.id]; !existed {
		e.m.open.Inc()
	}
	e.sessions[ss.id] = ss
	if n := sessionSeq(ss.id); n > e.seq {
		e.seq = n
	}
}

// restoreSnapshot replaces a session's state wholesale with a
// checkpoint; chunk records at or before ChunkIdx are already folded
// into it and replayChunk skips them. It refuses a lattice that names
// an edge the engine's network does not have: the WAL does not record
// which network wrote it.
func (e *Engine) restoreSnapshot(snap walSnapshot, now time.Time, seq uint64) error {
	ss := e.newSession(snap.Session, snap.Lateness, snap.MaxSpeed, snap.Lanes, now)
	ss.results = append([]Result(nil), snap.Results...)
	ss.ingested, ss.emitted, ss.late, ss.outliers = snap.Ingested, snap.Emitted, snap.Late, snap.Outliers
	ss.chunkIdx, ss.clientSeq, ss.snapSeq = snap.ChunkIdx, snap.ClientSeq, seq
	if prior, existed := e.sessions[snap.Session]; existed {
		ss.openSeq = prior.openSeq
	}
	for _, src := range snap.SrcIDs {
		ss.noteSource(src)
	}
	for _, ws := range snap.Sources {
		st := ss.sourceAt(ss.noteSource(ws.Src))
		st.re, st.hasLast, st.last, st.matcher = stream.NewReordererFromState(ws.Re), ws.HasLast, ws.Last, nil
		if ws.Matcher != nil && e.snapper != nil {
			for _, col := range ws.Matcher.Cands {
				for _, c := range col {
					if n := e.cfg.Stream.Network.NumEdges(); c.Edge < 0 || int(c.Edge) >= n {
						return fmt.Errorf("session %s: its matcher lattice names edge %d, and the network has %d edges", ss.id, c.Edge, n)
					}
				}
			}
			st.matcher = uncertain.NewOnlineMatcherFromState(
				e.cfg.Stream.Network, e.snapper, uncertain.MatchOptions{}, matchLag, *ws.Matcher)
		}
	}
	e.restore(ss)
	e.m.restored.Inc()
	e.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionRestore, N: int(snap.ChunkIdx)})
	return nil
}

// replayChunk re-applies one logged chunk. Backpressure is not
// re-checked: the chunk was accepted (and acked durable) before the
// crash, so replay must take it.
func (ss *streamSession) replayChunk(c chunkRecord) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if c.chunkIdx <= ss.chunkIdx { // already folded into a snapshot
		return
	}
	ss.applyLocked(c.events, ss.fanOutLocked(c.events))
	ss.chunkIdx = c.chunkIdx
	if c.clientSeq > ss.clientSeq {
		ss.clientSeq = c.clientSeq
	}
}
