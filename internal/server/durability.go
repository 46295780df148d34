package server

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
// the binary; payloads are gob except the chunk record, whose layout
// is in chunkrec.go):
//
//	recSessionOpen   a session was created
//	recChunk         legacy gob chunk; read, never written
//	recDrain         a results drain was delivered (replay discards)
//	recSessionClose  the session was closed or evicted
//	recSnapshot      full session state; supersedes earlier records
//	recChunk2        one accepted ingest chunk, in apply order
//
// Per-session records are appended while holding the session mutex,
// so per-session WAL order is exactly apply order — replay is a pure
// fold. History range queries (history.go) are served from the same
// chunk records through a time-keyed chunk-extent index.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"sidq/internal/obs"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// WAL record types.
const (
	recSessionOpen  byte = 1
	recChunk        byte = 2
	recDrain        byte = 3
	recSessionClose byte = 4
	recSnapshot     byte = 5
	recChunk2       byte = 6
)

// DurabilityConfig enables the durable trajectory store. Zero Dir
// leaves the server memory-only (the pre-durability behavior).
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
	RetainEvery time.Duration // retention pass period (default Retain/4, clamped to [1s, 30s])
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

// errDurability marks WAL failures on the serving path: the ack MUST
// fail rather than claim durability the log cannot provide (503).
var errDurability = errors.New("durable log unavailable")

// WAL payload DTOs. Exported fields only — gob.
type walOpen struct {
	Session  string
	Lateness float64
	MaxSpeed float64
	Lanes    int
}

type walDrain struct {
	Session string
	Flush   bool
}

type walClose struct {
	Session string
	Evicted bool
}

type walSource struct {
	Src     string
	Re      stream.ReordererState[trajectory.Point]
	HasLast bool
	Last    trajectory.Point
	Matcher *uncertain.MatcherState // nil when the source has no matcher
}

type walSnapshot struct {
	Session   string
	Lateness  float64
	MaxSpeed  float64
	Lanes     int
	ChunkIdx  uint64
	ClientSeq uint64
	SrcIDs    []string
	Results   []streamResult
	Ingested  int
	Emitted   int
	Late      int
	Outliers  int
	Sources   []walSource
}

func decodeRec(payload []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// recBufs holds the buffers gob records are encoded into; Append copies
// the payload, so a buffer goes straight back.
var recBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// persist appends one typed record; failures are wrapped in
// errDurability so handlers map them to 503. A fresh gob.Encoder per
// record makes each carry its own type description and decode alone.
func (reg *sessionRegistry) persist(typ byte, v interface{}) (uint64, error) {
	buf := recBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return 0, fmt.Errorf("%w: encode: %v", errDurability, err)
	}
	seq, err := reg.appendRec(typ, buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		recBufs.Put(buf)
	}
	return seq, err
}

// appendRec appends one encoded record, wrapping a failure in
// errDurability.
func (reg *sessionRegistry) appendRec(typ byte, payload []byte) (uint64, error) {
	seq, err := reg.wal.Append(typ, payload)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errDurability, err)
	}
	return seq, nil
}

// persistChunkLocked writes the chunk record and indexes its extent
// for history queries. Caller holds ss.mu.
func (ss *streamSession) persistChunkLocked(events []stream.Event[srcPoint], clientSeq uint64) error {
	reg := ss.reg
	enc := getChunkEncoder()
	seq, err := reg.appendRec(recChunk2, enc.encode(ss.id, ss.chunkIdx+1, clientSeq, events))
	enc.release()
	if err != nil {
		return err
	}
	reg.hist.add(seq, events)
	return nil
}

// snapshotStateLocked captures the session's complete processing
// state. SrcIDs and Results alias the session's own slices: encode the
// snapshot before releasing ss.mu. Caller holds ss.mu.
func (ss *streamSession) snapshotStateLocked() walSnapshot {
	snap := walSnapshot{
		Session:   ss.id,
		Lateness:  ss.lateness,
		MaxSpeed:  ss.maxSpeed,
		Lanes:     len(ss.lanes),
		ChunkIdx:  ss.chunkIdx,
		ClientSeq: ss.clientSeq,
		SrcIDs:    ss.srcIDs,
		Results:   ss.results,
		Ingested:  ss.ingested,
		Emitted:   ss.emitted,
		Late:      ss.late,
		Outliers:  ss.outliers,
	}
	// Sources in first-appearance order keeps snapshot bytes stable for
	// identical histories.
	for _, src := range ss.srcIDs {
		st := ss.lanes[stream.LaneFor(src, len(ss.lanes))].sources[src]
		if st == nil {
			continue
		}
		ws := walSource{Src: src, Re: st.re.State(), HasLast: st.hasLast, Last: st.last}
		if st.matcher != nil {
			ms := st.matcher.State()
			ws.Matcher = &ms
		}
		snap.Sources = append(snap.Sources, ws)
	}
	return snap
}

// snapshotLocked checkpoints the session into the WAL. A failure is
// logged, not returned: the records the snapshot would summarize are
// already durable, so the session stays correct — only recovery gets
// slower (and the poisoned log fails the next ingest anyway).
func (ss *streamSession) snapshotLocked() {
	reg := ss.reg
	seq, err := reg.persist(recSnapshot, ss.snapshotStateLocked())
	if err != nil {
		reg.svc.logf("stream session %s: snapshot failed: %v", ss.id, err)
		return
	}
	ss.sinceSnap = 0
	ss.snapSeq = seq // everything below seq is now superseded for this session
	reg.m.snapshots.Inc()
	reg.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionSnapshot, N: ss.pendingReorderLocked()})
}

// persistCloseLocked logs the session close; best-effort (the session
// is going away regardless — a replay resurrecting it only costs the
// idle janitor one eviction).
func (ss *streamSession) persistCloseLocked(evicted bool) {
	if _, err := ss.reg.persist(recSessionClose, walClose{Session: ss.id, Evicted: evicted}); err != nil {
		ss.reg.svc.logf("stream session %s: close record failed: %v", ss.id, err)
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

// recoverFrom replays the WAL through the live apply path, rebuilding
// sessions and the history index, then adopts l as the registry's
// durable log. Called once, before the service accepts traffic.
func (reg *sessionRegistry) recoverFrom(l *store.Log) error {
	start := time.Now()
	now := reg.now()
	records := 0
	err := l.Replay(func(r store.Record) error {
		records++
		switch r.Type {
		case recSessionOpen:
			var o walOpen
			if err := decodeRec(r.Payload, &o); err != nil {
				return fmt.Errorf("record %d (open): %w", r.Seq, err)
			}
			reg.restoreOpen(o, now, r.Seq)
		case recChunk, recChunk2:
			c, err := decodeChunk(r)
			if err != nil {
				return fmt.Errorf("record %d (chunk): %w", r.Seq, err)
			}
			// History outlives sessions: index every chunk, even ones
			// whose session is already closed.
			reg.hist.add(r.Seq, c.events)
			if ss, ok := reg.sessions[c.session]; ok {
				ss.replayChunk(c, now)
			}
		case recDrain:
			var d walDrain
			if err := decodeRec(r.Payload, &d); err != nil {
				return fmt.Errorf("record %d (drain): %w", r.Seq, err)
			}
			if ss, ok := reg.sessions[d.Session]; ok {
				// Re-run and discard: these results were already
				// delivered to the client before the crash.
				ss.mu.Lock()
				ss.drainLocked(d.Flush)
				ss.mu.Unlock()
			}
		case recSessionClose:
			var c walClose
			if err := decodeRec(r.Payload, &c); err != nil {
				return fmt.Errorf("record %d (close): %w", r.Seq, err)
			}
			if ss, ok := reg.sessions[c.Session]; ok {
				delete(reg.sessions, c.Session)
				ss.closed = true
				reg.m.open.Dec()
			}
		case recSnapshot:
			var snap walSnapshot
			if err := decodeRec(r.Payload, &snap); err != nil {
				return fmt.Errorf("record %d (snapshot): %w", r.Seq, err)
			}
			reg.restoreSnapshot(snap, now, r.Seq)
		default:
			return fmt.Errorf("record %d: unknown type %d", r.Seq, r.Type)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	reg.m.replayed.Add(uint64(records))
	reg.wal = l
	reg.trace(obs.TraceEvent{Name: "wal", Kind: obs.KindWALReplay, Dur: time.Since(start), N: records})
	if records > 0 {
		reg.svc.logf("wal: replayed %d records, %d sessions live, in %s",
			records, len(reg.sessions), time.Since(start).Round(time.Millisecond))
	}
	// The janitor normally starts on the first live open(); restored
	// sessions must not wait for one — a registry restored at
	// MaxSessions would otherwise 429 every open and the janitor could
	// never start.
	if len(reg.sessions) > 0 {
		reg.startJanitor()
	}
	return nil
}

// restoreOpen rebuilds an empty session during replay. Runs before the
// service serves traffic, so reg.mu is not needed.
func (reg *sessionRegistry) restoreOpen(o walOpen, now time.Time, seq uint64) {
	if _, ok := reg.sessions[o.Session]; ok {
		return
	}
	ss := &streamSession{
		id:         o.Session,
		reg:        reg,
		lateness:   o.Lateness,
		maxSpeed:   o.MaxSpeed,
		srcOrder:   map[string]int{},
		lastActive: now,
		openSeq:    seq,
	}
	for i := 0; i < o.Lanes; i++ {
		ss.lanes = append(ss.lanes, &streamLane{sources: map[string]*sourceState{}})
	}
	reg.sessions[ss.id] = ss
	if n := sessionSeq(ss.id); n > reg.seq {
		reg.seq = n
	}
	reg.m.open.Inc()
}

// restoreSnapshot replaces a session's state wholesale with a
// checkpoint; chunk records at or before ChunkIdx are already folded
// into it and replayChunk skips them.
func (reg *sessionRegistry) restoreSnapshot(snap walSnapshot, now time.Time, seq uint64) {
	prior, existed := reg.sessions[snap.Session]
	ss := &streamSession{
		id:         snap.Session,
		reg:        reg,
		lateness:   snap.Lateness,
		maxSpeed:   snap.MaxSpeed,
		srcOrder:   map[string]int{},
		results:    append([]streamResult(nil), snap.Results...),
		lastActive: now,
		ingested:   snap.Ingested,
		emitted:    snap.Emitted,
		late:       snap.Late,
		outliers:   snap.Outliers,
		chunkIdx:   snap.ChunkIdx,
		clientSeq:  snap.ClientSeq,
		snapSeq:    seq,
	}
	if existed {
		ss.openSeq = prior.openSeq
	}
	for i := 0; i < snap.Lanes; i++ {
		ss.lanes = append(ss.lanes, &streamLane{sources: map[string]*sourceState{}})
	}
	for _, src := range snap.SrcIDs {
		ss.srcOrder[src] = len(ss.srcIDs)
		ss.srcIDs = append(ss.srcIDs, src)
	}
	for _, ws := range snap.Sources {
		st := &sourceState{
			re:      stream.NewReordererFromState(ws.Re),
			hasLast: ws.HasLast,
			last:    ws.Last,
		}
		if ws.Matcher != nil && reg.snapper != nil {
			st.matcher = uncertain.NewOnlineMatcherFromState(
				reg.cfg.Network, reg.snapper, uncertain.MatchOptions{}, matchLag, *ws.Matcher)
		}
		ss.lanes[stream.LaneFor(ws.Src, len(ss.lanes))].sources[ws.Src] = st
	}
	reg.sessions[ss.id] = ss
	if n := sessionSeq(ss.id); n > reg.seq {
		reg.seq = n
	}
	if !existed {
		reg.m.open.Inc()
	}
	reg.m.restored.Inc()
	reg.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionRestore, N: int(snap.ChunkIdx)})
}

// replayChunk re-applies one logged chunk. Backpressure is not
// re-checked: the chunk was accepted (and acked durable) before the
// crash, so replay must take it.
func (ss *streamSession) replayChunk(c chunkRecord, now time.Time) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if c.chunkIdx <= ss.chunkIdx { // already folded into a snapshot
		return
	}
	ss.lastActive = now
	ss.applyLocked(c.events, ss.fanOutLocked(c.events))
	ss.chunkIdx = c.chunkIdx
	if c.clientSeq > ss.clientSeq {
		ss.clientSeq = c.clientSeq
	}
}

// Close stops the janitor, checkpoints every live session, and closes
// the WAL: a graceful shutdown restarts from snapshots alone.
func (reg *sessionRegistry) Close() error {
	reg.stopJanitor()
	if reg.wal == nil {
		return nil
	}
	reg.mu.Lock()
	sessions := make([]*streamSession, 0, len(reg.sessions))
	for _, ss := range reg.sessions {
		sessions = append(sessions, ss)
	}
	reg.mu.Unlock()
	for _, ss := range sessions {
		ss.mu.Lock()
		if !ss.closed {
			ss.snapshotLocked()
		}
		ss.mu.Unlock()
	}
	return reg.wal.Close()
}
