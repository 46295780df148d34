// Package session is the streaming-session engine behind sidqserve's
// /v1/stream and /v1/history routes: the paper's §2.3 "clean deferred,
// disordered, noisy SID as it arrives" middleware, without the HTTP.
//
// A session is a stateful, bounded stream processor: chunks of
// (source, t, x, y) events fan out into keyed lanes (a source id always
// lands in the same lane), each source reorders under the session's
// bounded-lateness watermark, and released events run through the
// incremental cleaner — a physical speed gate, plus an online HMM map
// matcher per source when the engine carries a road network. With a
// data directory every accepted chunk is persisted before it is
// acknowledged (durability.go), indexed for range queries (history.go)
// and aged out under a retention bound (retention.go).
//
// Three rules keep the engine drivable by anything, not only a server:
// it imports no net/http; time is an argument of every call that needs
// it — the engine keeps no clock or ticker and starts no goroutine (a
// chunk applies lane by lane in one pass); and the caller owns the
// tickers that call EvictIdle and Retain and the table that turns the
// typed errors below into statuses.
//
// Sessions are bounded in every dimension: a session-count cap, a
// per-lane reorder-buffer cap, a drained-results cap, and an idle TTL.
// Over-limit opens and chunks fail with ErrSessionLimit, ErrLaneFull or
// ErrResultsFull rather than queue without bound.
package session

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sidq/internal/obs"
	"sidq/internal/roadnet"
	"sidq/internal/store"
	"sidq/internal/stream"
)

// StreamConfig bounds the streaming ingestion subsystem. Zero fields
// take the defaults noted on each field.
type StreamConfig struct {
	MaxSessions    int           // open sessions before ErrSessionLimit (default 32)
	MaxLanePending int           // buffered events per lane before ErrLaneFull (default 4096)
	MaxResults     int           // undrained cleaned points per session before ErrResultsFull (default 65536)
	IdleTTL        time.Duration // EvictIdle reclaims sessions idle longer than this (default 5m)
	JanitorEvery   time.Duration // how often the caller should run EvictIdle (default 15s)
	Lateness       float64       // default watermark lateness, event-time seconds (default 5)

	// Network, when set, enables online map matching: each source gets
	// an uncertain.OnlineMatcher over this graph and emitted points
	// carry the snapped position and edge id.
	Network *roadnet.Graph
}

const (
	snapCell = 100 // snapper grid cell, meters
	matchLag = 5   // online matcher decision lag, points
)

func (c StreamConfig) withDefaults() StreamConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 32
	}
	if c.MaxLanePending <= 0 {
		c.MaxLanePending = 4096
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 1 << 16
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = 5 * time.Minute
	}
	if c.JanitorEvery <= 0 {
		c.JanitorEvery = 15 * time.Second
	}
	if c.Lateness < 0 {
		c.Lateness = 0
	} else if c.Lateness == 0 {
		c.Lateness = 5
	}
	return c
}

// Config is what the caller hands the engine at construction: the two
// option blocks a server.Config carries, and where the engine's
// metrics, trace events and log lines go. New applies the defaults;
// Engine.Config returns the result.
type Config struct {
	Stream     StreamConfig
	Durability DurabilityConfig                 // honored by Open; New is memory-only whatever it says
	Metrics    *obs.Registry                    // nil: a private registry
	Trace      obs.TraceSink                    // nil: no trace events
	Logf       func(format string, args ...any) // nil: no log lines
}

// What a call can fail with; the caller maps them to statuses.
var (
	ErrSessionLimit   = errors.New("session limit reached")
	ErrLaneFull       = errors.New("lane reorder buffer full")
	ErrResultsFull    = errors.New("result buffer full, drain /results first")
	ErrSessionGone    = errors.New("session closed")
	ErrUnknownSession = errors.New("unknown session")
	// ErrDurability marks WAL failures: the call was NOT applied, and the
	// caller must fail its ack rather than claim durability the log
	// cannot provide.
	ErrDurability = errors.New("durable log unavailable")
)

// The sidq_stream_*, retention and history families the engine feeds;
// the sidq_store_* WAL internals come from store.InstrumentTo.
const (
	mStreamOpen     = "sidq_stream_sessions_open"
	mStreamOpened   = "sidq_stream_session_opened_total"
	mStreamClosed   = "sidq_stream_session_closed_total"
	mStreamEvicted  = "sidq_stream_session_evicted_total"
	mStreamRejected = "sidq_stream_session_rejected_total"
	mStreamEvents   = "sidq_stream_session_events_total"
	mStreamIngested = mStreamEvents + `{kind="ingested"}`
	mStreamEmitted  = mStreamEvents + `{kind="emitted"}`
	mStreamLate     = mStreamEvents + `{kind="late"}`
	mStreamOutlier  = mStreamEvents + `{kind="outlier"}`

	mStreamSnapshots = "sidq_stream_snapshots_total"
	mStreamRestored  = "sidq_stream_snapshot_restores_total"
	mStreamReplayed  = "sidq_stream_replayed_records_total"
	mStreamDup       = "sidq_stream_dup_chunks_total"

	// sidq_store_compactions_total lives in the store namespace because
	// it counts WAL rewrites, but it is driven by Retain — the store
	// itself only truncates.
	mStoreCompactions = "sidq_store_compactions_total"
	mHistoryTrimmed   = "sidq_server_history_trimmed_total"

	// History read-path yield: rows of candidate chunks that fell inside
	// the queried window against rows read and dropped.
	mHistoryRows     = "sidq_server_history_rows_total"
	mHistoryReturned = mHistoryRows + `{outcome="returned"}`
	mHistoryFiltered = mHistoryRows + `{outcome="filtered"}`
)

// metrics caches the registry pointers the hot ingest path bumps.
type metrics struct {
	open                               *obs.Gauge
	opened, closed, evicted, rejected  *obs.Counter
	ingested, emitted, late, outlier   *obs.Counter
	snapshots, restored, replayed, dup *obs.Counter
	compactions, histTrimmed           *obs.Counter
	histReturned, histFiltered         *obs.Counter
}

// newMetrics registers HELP text and every family, so the very first
// scrape is complete even before any traffic.
func newMetrics(reg *obs.Registry) metrics {
	reg.Help(mStreamOpen, "Streaming ingestion sessions currently open.")
	reg.Help(mStreamOpened, "Streaming sessions opened.")
	reg.Help(mStreamClosed, "Streaming sessions closed by the client.")
	reg.Help(mStreamEvicted, "Streaming sessions evicted by the idle-TTL janitor.")
	reg.Help(mStreamRejected, "Streaming opens/chunks shed with 429 (session limit or full buffers).")
	reg.Help(mStreamEvents, "Streaming session events, by kind (ingested, emitted, late, outlier).")
	reg.Help(mStreamSnapshots, "Session state snapshots checkpointed into the WAL.")
	reg.Help(mStreamRestored, "Sessions rebuilt from WAL snapshots during recovery.")
	reg.Help(mStreamReplayed, "WAL records replayed during recovery.")
	reg.Help(mStreamDup, "Ingest chunks acknowledged as duplicates (?seq= retry dedup).")
	reg.Help(mStoreCompactions, "Live sessions force-snapshotted by retention so their old WAL tail becomes droppable.")
	reg.Help(mHistoryTrimmed, "History-index entries removed because retention truncated their WAL records.")
	reg.Help(mHistoryRows, "Rows of the chunks a history query read, by outcome (returned: inside the window; filtered: read and dropped).")
	roadnet.InstrumentTo(reg)
	stream.InstrumentTo(reg)
	store.InstrumentTo(reg)
	return metrics{
		open:   reg.Gauge(mStreamOpen),
		opened: reg.Counter(mStreamOpened), closed: reg.Counter(mStreamClosed),
		evicted: reg.Counter(mStreamEvicted), rejected: reg.Counter(mStreamRejected),
		ingested: reg.Counter(mStreamIngested), emitted: reg.Counter(mStreamEmitted),
		late: reg.Counter(mStreamLate), outlier: reg.Counter(mStreamOutlier),
		snapshots: reg.Counter(mStreamSnapshots), restored: reg.Counter(mStreamRestored),
		replayed: reg.Counter(mStreamReplayed), dup: reg.Counter(mStreamDup),
		compactions: reg.Counter(mStoreCompactions), histTrimmed: reg.Counter(mHistoryTrimmed),
		histReturned: reg.Counter(mHistoryReturned), histFiltered: reg.Counter(mHistoryFiltered),
	}
}

// Engine owns every live streaming session, the shared matcher
// substrate, the durable log and the history index over it.
type Engine struct {
	cfg     Config
	m       metrics
	snapper *roadnet.Snapper // nil without a network

	// Durability (durability.go). wal is nil while memory-only AND
	// during recovery replay, which is what keeps the replay apply
	// path from re-appending the records it is reading.
	wal      *store.Log
	hist     historyIndex
	retainMu sync.Mutex     // serializes retention passes
	ret      retentionState // retention sample ring, guarded by retainMu (retention.go)

	// mu guards the session table only. It is never held while a
	// session's own lock is taken: a session busy in a WAL append or an
	// fsync wait must not stall requests for every other session.
	mu       sync.Mutex
	sessions map[string]*streamSession
	seq      uint64
}

// New builds a memory-only engine.
func New(cfg Config) *Engine {
	cfg.Stream = cfg.Stream.withDefaults()
	cfg.Durability = cfg.Durability.withDefaults()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	e := &Engine{cfg: cfg, m: newMetrics(cfg.Metrics), sessions: map[string]*streamSession{}}
	if cfg.Stream.Network != nil {
		e.snapper = roadnet.NewSnapper(cfg.Stream.Network, snapCell)
	}
	return e
}

// Config returns the engine's configuration, defaults applied.
func (e *Engine) Config() Config { return e.cfg }

// Durable reports whether the engine persists to a WAL (and so has a
// history to query).
func (e *Engine) Durable() bool { return e.wal != nil }

// trace emits a session lifecycle event when the engine carries a
// trace sink.
func (e *Engine) trace(ev obs.TraceEvent) {
	if e.cfg.Trace != nil {
		e.cfg.Trace.Record(ev)
	}
}

// shed counts and traces one over-limit open or chunk.
func (e *Engine) shed(name string, err error) {
	e.m.rejected.Inc()
	e.trace(obs.TraceEvent{Name: name, Kind: obs.KindSessionShed, Err: err.Error()})
}

// live returns the sessions in the table, for passes that then take
// each session's own lock without holding e.mu.
func (e *Engine) live() []*streamSession {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*streamSession, 0, len(e.sessions))
	for _, ss := range e.sessions {
		out = append(out, ss)
	}
	return out
}

// Sessions returns how many sessions are open.
func (e *Engine) Sessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// unlink drops ss from the table.
func (e *Engine) unlink(ss *streamSession) {
	e.mu.Lock()
	delete(e.sessions, ss.id)
	e.mu.Unlock()
	e.m.open.Dec()
}

// OpenSession creates a session and returns its id, or fails with
// ErrSessionLimit (or ErrDurability: the open record must be durable
// before the client learns the id its chunk records will reference).
func (e *Engine) OpenSession(lateness, maxSpeed float64, lanes int, now time.Time) (string, error) {
	e.mu.Lock()
	if len(e.sessions) >= e.cfg.Stream.MaxSessions {
		e.mu.Unlock()
		e.shed("open", ErrSessionLimit)
		return "", ErrSessionLimit
	}
	e.seq++
	ss := e.newSession(fmt.Sprintf("st-%06d", e.seq), lateness, maxSpeed, lanes, now)
	e.sessions[ss.id] = ss
	e.mu.Unlock()
	e.m.open.Inc()
	if e.wal != nil {
		seq, err := e.persist(recSessionOpen, walOpen{
			Session: ss.id, Lateness: lateness, MaxSpeed: maxSpeed, Lanes: lanes,
		})
		if err != nil {
			e.unlink(ss)
			return "", err
		}
		ss.mu.Lock()
		ss.openSeq = seq
		ss.mu.Unlock()
	}
	e.m.opened.Inc()
	e.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionOpen, N: lanes})
	return ss.id, nil
}

// Has reports whether id names an open session: what lets a caller
// answer an unknown id before it reads a chunk body.
func (e *Engine) Has(id string) bool {
	_, err := e.session(id)
	return err == nil
}

// session returns the open session with the given id.
func (e *Engine) session(id string) (*streamSession, error) {
	e.mu.Lock()
	ss, ok := e.sessions[id]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownSession, id)
	}
	return ss, nil
}

// Ingest applies one chunk to the session atomically (see
// streamSession.ingest). The engine keeps no reference to events.
func (e *Engine) Ingest(id string, events []Event, clientSeq uint64, now time.Time) (Ack, error) {
	ss, err := e.session(id)
	if err != nil {
		return Ack{}, err
	}
	ack, err := ss.ingest(events, clientSeq, now)
	if errors.Is(err, ErrLaneFull) || errors.Is(err, ErrResultsFull) {
		e.shed(id, err)
	}
	return ack, err
}

// Drain hands back (and forgets) the session's cleaned results, in
// emission order, with its source ids in first-appearance order (for
// grouped rendering). With flush, the reorder buffers and the matchers'
// decision lag are flushed first — end of stream. The results slab is
// the caller's: Results.Put it once rendered.
func (e *Engine) Drain(id string, flush bool, now time.Time) ([]Result, []string, error) {
	ss, err := e.session(id)
	if err != nil {
		return nil, nil, err
	}
	return ss.drain(flush, now)
}

// Summary is a session's final account, as CloseSession returns it.
type Summary struct {
	Session                           string
	Ingested, Emitted, Late, Outliers int
	Dropped                           int // events still buffered or undrained when it closed
}

// CloseSession closes the session (client-initiated) and returns its
// summary.
func (e *Engine) CloseSession(id string) (Summary, error) {
	ss, err := e.session(id)
	if err != nil {
		return Summary{}, err
	}
	sum, ok := ss.end(false, time.Time{})
	if !ok { // an eviction or another close got there first
		return Summary{}, fmt.Errorf("%w %s", ErrUnknownSession, id)
	}
	e.unlink(ss)
	e.m.closed.Inc()
	e.trace(obs.TraceEvent{Name: id, Kind: obs.KindSessionClose, N: sum.Emitted})
	return sum, nil
}

// EvictIdle closes every session idle for longer than IdleTTL as of
// now and returns how many it reclaimed. Idle-and-close is decided
// under the session's own lock, so a chunk that arrives after the
// decision gets ErrSessionGone, never a half-evicted session.
func (e *Engine) EvictIdle(now time.Time) int {
	n := 0
	for _, ss := range e.live() {
		sum, ok := ss.end(true, now)
		if !ok {
			continue
		}
		e.unlink(ss)
		n++
		e.m.evicted.Inc()
		e.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionEvict, N: sum.Dropped})
		e.cfg.Logf("stream session %s: evicted after %s idle (%d events pending)", ss.id, e.cfg.Stream.IdleTTL, sum.Dropped)
	}
	return n
}

// Close checkpoints every live session and closes the WAL: a graceful
// shutdown restarts from snapshots alone. A memory-only engine has
// nothing to release.
func (e *Engine) Close() error {
	if e.wal == nil {
		return nil
	}
	for _, ss := range e.live() {
		ss.mu.Lock()
		if !ss.closed {
			ss.snapshotLocked()
		}
		ss.mu.Unlock()
	}
	return e.wal.Close()
}
