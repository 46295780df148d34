package server

// Streaming ingestion sessions: the serving path for the paper's §2.3
// "exploit low-quality SID as it arrives" workload. A session is a
// stateful, bounded stream processor living between HTTP requests:
//
//   - POST /v1/stream/open creates a session (lateness, lanes and
//     maxspeed are per-session query parameters).
//   - POST /v1/stream/ingest?session=ID feeds a chunk of point CSV
//     rows "id,t,x,y" (that exact line may lead as a header). The chunk
//     is parsed fully before any of it is applied, so a malformed or
//     disconnected chunk is rejected atomically. Rows fan out into keyed
//     lanes (stream.FanOutInto: a source id always lands in the same lane), each
//     lane reorders under the session's bounded-lateness watermark,
//     and released events run through the incremental cleaner — a
//     physical speed gate, plus an online HMM map matcher per source
//     when the service carries a road network.
//   - GET /v1/stream/{id}/results drains the cleaned points released
//     so far as NDJSON (or CSV with ?format=csv); ?flush=1 first
//     flushes the reorder buffers and matcher lag — end of stream.
//   - DELETE /v1/stream/{id} closes the session and returns a summary.
//
// Sessions are bounded in every dimension: a session-count cap, a
// per-lane reorder-buffer cap, a drained-results cap, and an idle TTL
// enforced by a janitor goroutine. Over-limit opens and chunks are
// shed with 429 + Retry-After rather than queued without bound.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sidq/internal/geo"
	"sidq/internal/obs"
	"sidq/internal/roadnet"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// StreamConfig bounds the streaming ingestion subsystem. Zero fields
// take the defaults noted on each field.
type StreamConfig struct {
	MaxSessions    int           // open sessions before 429 (default 32)
	MaxLanePending int           // buffered events per lane before 429 (default 4096)
	MaxResults     int           // undrained cleaned points per session before 429 (default 65536)
	IdleTTL        time.Duration // idle sessions are evicted after this (default 5m)
	JanitorEvery   time.Duration // eviction sweep period (default 15s)
	Lateness       float64       // default watermark lateness, event-time seconds (default 5)

	// Network, when set, enables online map matching: each source gets
	// an uncertain.OnlineMatcher over this graph and emitted points
	// carry the snapped position and edge id.
	Network *roadnet.Graph
}

const (
	defaultLanes = 4   // lanes per session when ?lanes= is absent
	snapCell     = 100 // snapper grid cell, meters
	matchLag     = 5   // online matcher decision lag, points
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

// Shedding and lifecycle errors, mapped to statuses by the handlers.
var (
	errSessionLimit = errors.New("session limit reached")
	errLaneFull     = errors.New("lane reorder buffer full")
	errResultsFull  = errors.New("result buffer full, drain /results first")
	errSessionGone  = errors.New("session closed")
)

// streamMetrics caches the registry pointers the hot ingest path bumps.
type streamMetrics struct {
	open        *obs.Gauge
	opened      *obs.Counter
	closed      *obs.Counter
	evicted     *obs.Counter
	rejected    *obs.Counter
	ingested    *obs.Counter
	emitted     *obs.Counter
	late        *obs.Counter
	outlier     *obs.Counter
	snapshots   *obs.Counter
	restored    *obs.Counter
	replayed    *obs.Counter
	dup         *obs.Counter
	compactions *obs.Counter
	histTrimmed *obs.Counter

	histReturned *obs.Counter // history rows inside a query's window
	histFiltered *obs.Counter // history rows read from candidate chunks and dropped
}

// sessionRegistry owns every live streaming session plus the shared
// matcher substrate and the idle-TTL janitor.
type sessionRegistry struct {
	cfg     StreamConfig
	svc     *Service
	m       streamMetrics
	snapper *roadnet.Snapper // nil without a network
	now     func() time.Time // injectable for eviction tests

	// Durability (durability.go). wal is nil while memory-only AND
	// during recovery replay, which is what keeps the replay apply
	// path from re-appending the records it is reading.
	wal       *store.Log
	hist      *historyIndex
	snapEvery int
	retainMu  sync.Mutex     // serializes retention passes (ticker vs RunRetentionOnce)
	ret       retentionState // retention sample ring, guarded by retainMu (retention.go)

	mu       sync.Mutex
	sessions map[string]*streamSession
	seq      uint64

	janitorOnce sync.Once
	stopOnce    sync.Once
	stopCh      chan struct{}
}

func newSessionRegistry(s *Service) *sessionRegistry {
	cfg := s.cfg.Stream
	reg := &sessionRegistry{
		cfg:       cfg,
		svc:       s,
		now:       time.Now,
		sessions:  map[string]*streamSession{},
		stopCh:    make(chan struct{}),
		hist:      newHistoryIndex(),
		snapEvery: s.cfg.Durability.SnapshotEvery,
		m: streamMetrics{
			open:        s.metrics.Gauge(mStreamOpen),
			opened:      s.metrics.Counter(mStreamOpened),
			closed:      s.metrics.Counter(mStreamClosed),
			evicted:     s.metrics.Counter(mStreamEvicted),
			rejected:    s.metrics.Counter(mStreamRejected),
			ingested:    s.metrics.Counter(mStreamIngested),
			emitted:     s.metrics.Counter(mStreamEmitted),
			late:        s.metrics.Counter(mStreamLate),
			outlier:     s.metrics.Counter(mStreamOutlier),
			snapshots:   s.metrics.Counter(mStreamSnapshots),
			restored:    s.metrics.Counter(mStreamRestored),
			replayed:    s.metrics.Counter(mStreamReplayed),
			dup:         s.metrics.Counter(mStreamDup),
			compactions: s.metrics.Counter(mStoreCompactions),
			histTrimmed: s.metrics.Counter(mHistoryTrimmed),

			histReturned: s.metrics.Counter(mHistoryReturned),
			histFiltered: s.metrics.Counter(mHistoryFiltered),
		},
	}
	if cfg.Network != nil {
		reg.snapper = roadnet.NewSnapper(cfg.Network, snapCell)
	}
	return reg
}

// trace emits a session lifecycle event when the service carries a
// trace sink.
func (reg *sessionRegistry) trace(ev obs.TraceEvent) {
	if sink := reg.svc.cfg.Trace; sink != nil {
		sink.Record(ev)
	}
}

// startJanitor spawns the eviction goroutine once, on first session
// open, so services that never stream pay nothing.
func (reg *sessionRegistry) startJanitor() {
	reg.janitorOnce.Do(func() {
		go func() {
			t := time.NewTicker(reg.cfg.JanitorEvery)
			defer t.Stop()
			for {
				select {
				case <-reg.stopCh:
					return
				case <-t.C:
					reg.sweep(reg.now())
				}
			}
		}()
	})
}

func (reg *sessionRegistry) stopJanitor() {
	reg.stopOnce.Do(func() { close(reg.stopCh) })
}

// EvictIdleStreams runs one janitor sweep as of now and returns how
// many sessions it reclaimed. The background janitor runs the same
// sweep on a timer; this entry point exists for operational tooling
// and deterministic tests.
func (s *Service) EvictIdleStreams(now time.Time) int { return s.streams.sweep(now) }

// sweep evicts sessions idle past the TTL and returns how many it
// reclaimed. It is the janitor's tick body, exposed for deterministic
// tests via the injectable clock.
func (reg *sessionRegistry) sweep(now time.Time) int {
	reg.mu.Lock()
	var expired []*streamSession
	for _, ss := range reg.sessions {
		ss.mu.Lock()
		idle := now.Sub(ss.lastActive)
		ss.mu.Unlock()
		if idle > reg.cfg.IdleTTL {
			expired = append(expired, ss)
		}
	}
	for _, ss := range expired {
		delete(reg.sessions, ss.id)
	}
	reg.mu.Unlock()
	for _, ss := range expired {
		pending := ss.shutdown(true)
		reg.m.open.Dec()
		reg.m.evicted.Inc()
		reg.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionEvict, N: pending})
		reg.svc.logf("stream session %s: evicted after %s idle (%d events pending)", ss.id, reg.cfg.IdleTTL, pending)
	}
	return len(expired)
}

// open creates a session or fails with errSessionLimit.
func (reg *sessionRegistry) open(lateness, maxSpeed float64, lanes int) (*streamSession, error) {
	reg.mu.Lock()
	if len(reg.sessions) >= reg.cfg.MaxSessions {
		reg.mu.Unlock()
		reg.m.rejected.Inc()
		reg.trace(obs.TraceEvent{Name: "open", Kind: obs.KindSessionShed, Err: errSessionLimit.Error()})
		return nil, errSessionLimit
	}
	reg.seq++
	ss := &streamSession{
		id:         fmt.Sprintf("st-%06d", reg.seq),
		reg:        reg,
		lateness:   lateness,
		maxSpeed:   maxSpeed,
		srcOrder:   map[string]int{},
		lastActive: reg.now(),
	}
	for i := 0; i < lanes; i++ {
		ss.lanes = append(ss.lanes, &streamLane{sources: map[string]*sourceState{}})
	}
	reg.sessions[ss.id] = ss
	reg.mu.Unlock()
	// Persist-before-ack: the open record must be durable before the
	// client learns the id (its chunk records will reference it).
	if reg.wal != nil {
		seq, err := reg.persist(recSessionOpen, walOpen{
			Session: ss.id, Lateness: lateness, MaxSpeed: maxSpeed, Lanes: lanes,
		})
		if err != nil {
			reg.mu.Lock()
			delete(reg.sessions, ss.id)
			reg.mu.Unlock()
			return nil, err
		}
		ss.mu.Lock()
		ss.openSeq = seq
		ss.mu.Unlock()
	}
	reg.startJanitor()
	reg.m.open.Inc()
	reg.m.opened.Inc()
	reg.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionOpen, N: lanes})
	return ss, nil
}

// get returns the live session with the given id.
func (reg *sessionRegistry) get(id string) (*streamSession, bool) {
	reg.mu.Lock()
	ss, ok := reg.sessions[id]
	reg.mu.Unlock()
	return ss, ok
}

// close removes and shuts down a session (client-initiated).
func (reg *sessionRegistry) close(id string) (*streamSession, bool) {
	reg.mu.Lock()
	ss, ok := reg.sessions[id]
	delete(reg.sessions, id)
	reg.mu.Unlock()
	if !ok {
		return nil, false
	}
	ss.shutdown(false)
	reg.m.open.Dec()
	reg.m.closed.Inc()
	ss.mu.Lock()
	emitted := ss.emitted
	ss.mu.Unlock()
	reg.trace(obs.TraceEvent{Name: ss.id, Kind: obs.KindSessionClose, N: emitted})
	return ss, true
}

// srcPoint is one ingested sample: the source id plus the sample.
type srcPoint struct {
	src string
	pt  trajectory.Point
}

// sourceState is the per-source incremental cleaning state. A source
// lives in exactly one lane (LaneFor of its id), so lane goroutines
// touch disjoint source states. The reorderer — and therefore the
// lateness watermark — is per source, not per lane: sources sharing a
// lane may sit at wildly different event times (one client replaying
// history while another streams live), and a shared watermark would
// let the fastest source drop every other source's rows as late.
type sourceState struct {
	re      *stream.Reorderer[trajectory.Point]
	hasLast bool
	last    trajectory.Point // last accepted point, the speed-gate anchor
	matcher *uncertain.OnlineMatcher
}

// streamLane is one keyed lane: the affinity/parallelism unit holding
// the states of the sources hashed to it.
type streamLane struct {
	sources map[string]*sourceState
	res     []streamResult // laneOut.res scratch, kept across chunks
}

// pending sums the lane's buffered (not yet released) events.
func (l *streamLane) pending() int {
	n := 0
	for _, st := range l.sources {
		n += st.re.Pending()
	}
	return n
}

// streamResult is one cleaned output point (an NDJSON line). Edge is
// set only when a road network is loaded and the point was matched.
type streamResult struct {
	Source string  `json:"source"`
	T      float64 `json:"t"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Edge   *int    `json:"edge,omitempty"`
}

// streamSession is one client's stream state between requests.
type streamSession struct {
	id       string
	reg      *sessionRegistry
	lateness float64 // per-source watermark lateness, event-time seconds
	maxSpeed float64 // speed gate bound, m/s (0 disables)

	mu         sync.Mutex
	closed     bool
	lanes      []*streamLane
	laneEvents [][]stream.Event[srcPoint] // fan-out scratch, kept across chunks
	srcOrder   map[string]int             // source id -> first-appearance rank
	srcIDs     []string                   // source ids in first-appearance order
	results    []streamResult             // cleaned, undrained
	lastActive time.Time

	ingested, emitted, late, outliers int

	// Durability bookkeeping (durability.go).
	chunkIdx  uint64 // chunks applied; replay skips records at or below it
	clientSeq uint64 // highest client-supplied ?seq=, for retry dedup
	sinceSnap int    // chunks since the last snapshot record

	// Retention floors (retention.go): the lowest WAL seq this session
	// still needs for recovery is snapSeq (a snapshot supersedes all of
	// its earlier records), falling back to openSeq before the first
	// snapshot. 0 means unknown — the session pins the whole log.
	openSeq uint64 // seq of this session's recSessionOpen record
	snapSeq uint64 // seq of the latest recSnapshot record
}

// laneOut is one lane's contribution to a chunk or flush. res is the
// lane's scratch: merge it into ss.results before the lane runs again.
type laneOut struct {
	res            []streamResult
	late, outliers int
}

// sourceFor returns the lane's state for src, creating it on first
// sight. Caller must be the only goroutine touching this lane.
func (ss *streamSession) sourceFor(l *streamLane, src string) *sourceState {
	st := l.sources[src]
	if st == nil {
		st = &sourceState{re: stream.NewReorderer[trajectory.Point](ss.lateness)}
		if ss.reg.snapper != nil {
			st.matcher = uncertain.NewOnlineMatcher(
				ss.reg.cfg.Network, ss.reg.snapper, uncertain.MatchOptions{}, matchLag)
		}
		l.sources[src] = st
	}
	return st
}

// cleanInto runs one released (in-order) point through the incremental
// cleaner, appending any emitted points to out. Caller must be the only
// goroutine touching this source's lane.
func (ss *streamSession) cleanInto(st *sourceState, src string, pt trajectory.Point, out *laneOut) {
	if st.hasLast && ss.maxSpeed > 0 {
		dt := pt.T - st.last.T
		if dt <= 0 || st.last.Pos.Dist(pt.Pos)/dt > ss.maxSpeed {
			out.outliers++
			return
		}
	}
	st.last, st.hasLast = pt, true
	if st.matcher != nil {
		for _, m := range st.matcher.Push(pt) {
			e := int(m.Snap.Edge)
			out.res = append(out.res, streamResult{
				Source: src, T: m.Point.T, X: m.Snap.Pos.X, Y: m.Snap.Pos.Y, Edge: &e,
			})
		}
		return
	}
	out.res = append(out.res, streamResult{Source: src, T: pt.T, X: pt.Pos.X, Y: pt.Pos.Y})
}

// ingestAck is the JSON response to one ingest chunk.
type ingestAck struct {
	Session        string `json:"session"`
	Ingested       int    `json:"ingested"`
	Released       int    `json:"released"`
	PendingReorder int    `json:"pending_reorder"`
	PendingResults int    `json:"pending_results"`
	Duplicate      bool   `json:"duplicate,omitempty"` // chunk already applied (?seq= retry)
}

// ingest applies one parsed chunk atomically: backpressure is checked
// up front, so a rejected chunk leaves the session untouched. With a
// durable log, the chunk record is persisted (and, under fsync=always,
// fsynced) before it is applied — the ack never claims more than the
// disk holds. clientSeq, when non-zero, must increase chunk over
// chunk; a replayed seq is acknowledged as a duplicate without being
// applied, which is what makes client retries after a crash or a lost
// response idempotent.
func (ss *streamSession) ingest(events []stream.Event[srcPoint], clientSeq uint64, now time.Time) (ingestAck, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ingestAck{}, errSessionGone
	}
	ss.lastActive = now
	if clientSeq > 0 && clientSeq <= ss.clientSeq {
		ss.reg.m.dup.Inc()
		return ingestAck{
			Session:        ss.id,
			Duplicate:      true,
			PendingReorder: ss.pendingReorderLocked(),
			PendingResults: len(ss.results),
		}, nil
	}
	lanes := ss.fanOutLocked(events)
	for i, le := range lanes {
		if len(le) > 0 && ss.lanes[i].pending()+len(le) > ss.reg.cfg.MaxLanePending {
			ss.laneEvents = nil // only an accepted chunk, MaxLanePending a lane at most, sizes the scratch
			return ingestAck{}, errLaneFull
		}
	}
	if len(ss.results)+len(events) > ss.reg.cfg.MaxResults {
		ss.laneEvents = nil
		return ingestAck{}, errResultsFull
	}
	if ss.reg.wal != nil {
		if err := ss.persistChunkLocked(events, clientSeq); err != nil {
			return ingestAck{}, err
		}
	}
	ack := ss.applyLocked(events, lanes)
	ss.chunkIdx++
	if clientSeq > 0 {
		ss.clientSeq = clientSeq
	}
	ss.sinceSnap++
	if ss.reg.wal != nil && ss.sinceSnap >= ss.reg.snapEvery {
		ss.snapshotLocked()
	}
	return ack, nil
}

// fanOutLocked partitions events by source into the session's lane
// scratch. Caller holds ss.mu.
func (ss *streamSession) fanOutLocked(events []stream.Event[srcPoint]) [][]stream.Event[srcPoint] {
	ss.laneEvents = stream.FanOutInto(ss.laneEvents, events, len(ss.lanes),
		func(e stream.Event[srcPoint]) string { return e.Value.src })
	return ss.laneEvents
}

// applyLocked runs one accepted chunk through the lanes. It is the
// shared apply path: live ingest and WAL replay both fold chunks
// through it, which is what makes recovery deterministic. Caller holds
// ss.mu and has already fanned events out.
func (ss *streamSession) applyLocked(events []stream.Event[srcPoint], lanes [][]stream.Event[srcPoint]) ingestAck {
	for _, e := range events {
		if _, ok := ss.srcOrder[e.Value.src]; !ok {
			ss.srcOrder[e.Value.src] = len(ss.srcIDs)
			ss.srcIDs = append(ss.srcIDs, e.Value.src)
		}
	}
	// Lanes are disjoint (a source id always hashes to the same lane),
	// so they process in parallel; merging in lane-index order keeps
	// the result order deterministic.
	outs := stream.ProcessLanes(lanes, 0, func(i int, evs []stream.Event[srcPoint]) laneOut {
		l := ss.lanes[i]
		lo := laneOut{res: l.res[:0]}
		for _, e := range evs {
			st := ss.sourceFor(l, e.Value.src)
			lateBefore := st.re.LateCount()
			for _, rel := range st.re.Push(stream.Event[trajectory.Point]{Time: e.Time, Value: e.Value.pt}) {
				ss.cleanInto(st, e.Value.src, rel.Value, &lo)
			}
			lo.late += st.re.LateCount() - lateBefore
		}
		l.res = lo.res
		return lo
	})
	if ss.results == nil {
		ss.results = resultSlabs.get()
	}
	released, late, outliers := 0, 0, 0
	for _, lo := range outs {
		ss.results = append(ss.results, lo.res...)
		released += len(lo.res)
		late += lo.late
		outliers += lo.outliers
	}
	ss.ingested += len(events)
	ss.emitted += released
	ss.late += late
	ss.outliers += outliers
	m := &ss.reg.m
	m.ingested.Add(uint64(len(events)))
	m.emitted.Add(uint64(released))
	m.late.Add(uint64(late))
	m.outlier.Add(uint64(outliers))
	return ingestAck{
		Session:        ss.id,
		Ingested:       len(events),
		Released:       released,
		PendingReorder: ss.pendingReorderLocked(),
		PendingResults: len(ss.results),
	}
}

// pendingReorderLocked sums the source reorder buffers plus any
// matcher lag. Caller holds ss.mu.
func (ss *streamSession) pendingReorderLocked() int {
	n := 0
	for _, l := range ss.lanes {
		n += l.pending()
		for _, st := range l.sources {
			if st.matcher != nil {
				n += st.matcher.Pending()
			}
		}
	}
	return n
}

// drain hands back (and forgets) the cleaned results accumulated so
// far, in emission order. With flush, the lane reorder buffers and the
// matchers' decision lag are flushed first — end of stream. The
// returned source ids are in first-appearance order, for grouped (CSV)
// rendering.
func (ss *streamSession) drain(flush bool, now time.Time) ([]streamResult, []string, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, nil, errSessionGone
	}
	ss.lastActive = now
	// A drain changes state the client observes (results leave the
	// buffer; flush advances the matchers), so it is logged before it
	// runs: replay re-runs it and discards the output, and the rows
	// this response delivers are never delivered again after a crash.
	if ss.reg.wal != nil && (flush || len(ss.results) > 0) {
		if _, err := ss.reg.persist(recDrain, walDrain{Session: ss.id, Flush: flush}); err != nil {
			return nil, nil, err
		}
	}
	out, srcs := ss.drainLocked(flush)
	return out, srcs, nil
}

// drainLocked is the drain state transition, shared by the live path
// and WAL replay. Caller holds ss.mu.
func (ss *streamSession) drainLocked(flush bool) ([]streamResult, []string) {
	if flush {
		emittedBefore := len(ss.results)
		// Flush per source in first-appearance order — reorder buffer
		// first, then the matcher's decision lag — so the tail of the
		// output is deterministic regardless of lane hashing.
		for _, src := range ss.srcIDs {
			l := ss.lanes[stream.LaneFor(src, len(ss.lanes))]
			st := l.sources[src]
			if st == nil {
				continue
			}
			lo := laneOut{res: l.res[:0]}
			for _, rel := range st.re.Flush() {
				ss.cleanInto(st, src, rel.Value, &lo)
			}
			if st.matcher != nil {
				for _, m := range st.matcher.Flush() {
					e := int(m.Snap.Edge)
					lo.res = append(lo.res, streamResult{
						Source: src, T: m.Point.T, X: m.Snap.Pos.X, Y: m.Snap.Pos.Y, Edge: &e,
					})
				}
			}
			ss.results = append(ss.results, lo.res...)
			l.res = lo.res
			ss.outliers += lo.outliers
			ss.reg.m.outlier.Add(uint64(lo.outliers))
		}
		released := len(ss.results) - emittedBefore
		ss.emitted += released
		ss.reg.m.emitted.Add(uint64(released))
	}
	out := ss.results
	ss.results = nil
	srcs := append([]string(nil), ss.srcIDs...)
	return out, srcs
}

// shutdown marks the session closed and returns how many events were
// still pending (reorder buffers, matcher lag, undrained results).
func (ss *streamSession) shutdown(evicted bool) int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return 0
	}
	ss.closed = true
	if ss.reg.wal != nil {
		ss.persistCloseLocked(evicted)
	}
	return ss.pendingReorderLocked() + len(ss.results)
}

// --- HTTP handlers -------------------------------------------------

// handleStream dispatches the /v1/stream/ subtree.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	switch {
	case rest == "open":
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleStreamOpen(w, r)
	case rest == "ingest":
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleStreamIngest(w, r)
	case strings.HasSuffix(rest, "/results"):
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleStreamResults(w, r, strings.TrimSuffix(rest, "/results"))
	case rest != "" && !strings.Contains(rest, "/"):
		if r.Method != http.MethodDelete {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleStreamClose(w, r, rest)
	default:
		http.NotFound(w, r)
	}
}

func (s *Service) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	lateness, err := queryFloat0(r, "lateness", s.cfg.Stream.Lateness)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	maxSpeed, err := queryFloat0(r, "maxspeed", 20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lanes, err := queryIntRange(r, "lanes", defaultLanes, 1, 64)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ss, err := s.streams.open(lateness, maxSpeed, lanes)
	if err != nil {
		if errors.Is(err, errDurability) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		shed429(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]interface{}{
		"session":  ss.id,
		"lateness": lateness,
		"maxspeed": maxSpeed,
		"lanes":    lanes,
	})
}

func (s *Service) handleStreamIngest(w http.ResponseWriter, r *http.Request) {
	// Everything the query string can get wrong is answered before the
	// body is read: a bad ?seq= must not cost a full parse first.
	id := r.URL.Query().Get("session")
	if id == "" {
		http.Error(w, "missing query parameter session", http.StatusBadRequest)
		return
	}
	clientSeq, err := queryUint(r, "seq")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ss, ok := s.streams.get(id)
	if !ok {
		http.Error(w, "unknown session "+id, http.StatusNotFound)
		return
	}
	var events []stream.Event[srcPoint]
	body, err := readBody(r)
	if err == nil {
		events, err = parsePointChunk(body)
	}
	if err != nil {
		bodyError(w, err)
		return
	}
	ack, err := ss.ingest(events, clientSeq, s.streams.now())
	eventSlabs.put(events) // nothing in the session kept the slab: it copies what it needs
	if err != nil {
		s.streamError(w, ss.id, err)
		return
	}
	w.Header().Set("X-Sidq-Session", ss.id)
	writeJSON(w, ack)
}

func (s *Service) handleStreamResults(w http.ResponseWriter, r *http.Request, id string) {
	ss, ok := s.streams.get(id)
	if !ok {
		http.Error(w, "unknown session "+id, http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	flush := q.Get("flush") == "1" || q.Get("flush") == "true"
	format := q.Get("format") // ndjson unless csv
	if format != "" && format != "ndjson" && format != "csv" {
		http.Error(w, (&paramError{key: "format", value: format}).Error(), http.StatusBadRequest)
		return
	}
	results, srcs, err := ss.drain(flush, s.streams.now())
	if err != nil {
		s.streamError(w, ss.id, err)
		return
	}
	defer resultSlabs.put(results) // the session forgot the slab at the drain
	w.Header().Set("X-Sidq-Session", ss.id)
	w.Header().Set("X-Sidq-Drained", strconv.Itoa(len(results)))
	rb := getRowBuf()
	defer rb.release()
	if format == "csv" {
		// Sources in the session's first-appearance order, rows in emitted
		// order: a fully drained in-order session equals the batch path.
		w.Header().Set("Content-Type", "text/csv")
		b := trajectory.NewColumnsBuilder()
		for _, res := range results {
			b.Add(res.Source, res.T, res.X, res.Y)
		}
		if err := rb.writeCSV(w, b, srcs); err != nil {
			s.writeError(r, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, res := range results {
		err := rb.appendRow(rb.sourceJSON(res.Source), res.T, res.X, res.Y, res.Edge)
		if err == nil {
			err = rb.flushTo(w, trajectory.RowFlushBytes)
		}
		if err != nil {
			s.writeError(r, err)
			return
		}
	}
	if err := rb.flushTo(w, 0); err != nil {
		s.writeError(r, err)
	}
}

func (s *Service) handleStreamClose(w http.ResponseWriter, r *http.Request, id string) {
	ss, ok := s.streams.close(id)
	if !ok {
		http.Error(w, "unknown session "+id, http.StatusNotFound)
		return
	}
	ss.mu.Lock()
	summary := map[string]interface{}{
		"session":  ss.id,
		"ingested": ss.ingested,
		"emitted":  ss.emitted,
		"late":     ss.late,
		"outliers": ss.outliers,
		"dropped":  len(ss.results) + ss.pendingReorderLocked(),
	}
	ss.mu.Unlock()
	writeJSON(w, summary)
}

// streamError maps session-layer errors onto statuses: shedding is a
// 429 the client should back off from; a closed/evicted session is a
// 404 (its id no longer names anything).
func (s *Service) streamError(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, errLaneFull), errors.Is(err, errResultsFull):
		s.streams.m.rejected.Inc()
		s.streams.trace(obs.TraceEvent{Name: id, Kind: obs.KindSessionShed, Err: err.Error()})
		shed429(w, err)
	case errors.Is(err, errSessionGone):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, errDurability):
		// The WAL could not persist the chunk, so it was not applied:
		// the ack must fail rather than claim durability. 503 tells the
		// client the data was NOT accepted.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func shed429(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, err.Error(), http.StatusTooManyRequests)
}

// slabPool recycles slices whose owner hands them over and forgets
// them. put clears the slab, so a pooled one pins no source strings or
// edge ints, and leaves one that grew past maxSlab to the GC.
type slabPool[T any] struct{ p sync.Pool }

const maxSlab = 1 << 14 // elements

var (
	eventSlabs  slabPool[stream.Event[srcPoint]] // parsePointChunk -> handleStreamIngest
	resultSlabs slabPool[streamResult]           // applyLocked -> drainLocked -> handleStreamResults
)

func (sp *slabPool[T]) get() []T {
	s, _ := sp.p.Get().([]T)
	return s
}

func (sp *slabPool[T]) put(s []T) {
	if cap(s) == 0 || cap(s) > maxSlab {
		return
	}
	clear(s)
	sp.p.Put(s[:0])
}

// parsePointChunk decodes a chunk of "id,t,x,y" CSV rows (header
// optional) into events. The whole chunk is parsed before anything is
// applied; any malformed row rejects the chunk. The events hold one
// copy of each distinct source id and no view of body, in an eventSlabs
// slab that grows with the rows found, not the body's newline count.
func parsePointChunk(body []byte) ([]stream.Event[srcPoint], error) {
	events := eventSlabs.get()
	ids := map[string]string{}
	err := trajectory.ScanCSV(body, false, func(id string, t, x, y float64) error {
		if id == "" {
			return errors.New("empty source id")
		}
		for _, v := range [3]float64{t, x, y} {
			// A NaN event time would break the reorder buffer's ordering.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("bad point %v,%v,%v for %q: not finite", t, x, y, id)
			}
		}
		src, ok := ids[id]
		if !ok {
			src = strings.Clone(id)
			ids[src] = src
		}
		events = append(events, stream.Event[srcPoint]{
			Time:  t,
			Value: srcPoint{src: src, pt: trajectory.Point{T: t, Pos: geo.Pt(x, y)}},
		})
		return nil
	})
	if err != nil {
		eventSlabs.put(events)
		return nil, fmt.Errorf("parse point csv: %w", err)
	}
	return events, nil
}

// queryFloat0 is queryFloat admitting zero: lateness=0 is strict
// in-order mode and maxspeed=0 disables the speed gate.
func queryFloat0(r *http.Request, key string, def float64) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, &paramError{key: key, value: s}
	}
	return v, nil
}

// queryUint parses a non-negative integer query parameter (0 when
// absent).
func queryUint(r *http.Request, key string) (uint64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, &paramError{key: key, value: s}
	}
	return v, nil
}

// queryIntRange parses an integer query parameter within [lo, hi].
func queryIntRange(r *http.Request, key string, def, lo, hi int) (int, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < lo || v > hi {
		return 0, &paramError{key: key, value: s}
	}
	return v, nil
}
