package session

// The session state machine: what one client's stream is between calls,
// and the apply, drain and close transitions the live path and WAL
// replay share.

import (
	"slices"
	"strings"
	"sync"
	"time"

	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// sourceState is the per-source incremental cleaning state. A source
// lives in exactly one lane, LaneFor of its id, recorded when its state
// is created. The reorderer — and therefore the lateness watermark — is
// per source, not per lane: sources sharing a lane may sit at wildly
// different event times (one client replaying history while another
// streams live), and a shared watermark would let the fastest source
// drop every other source's rows as late.
type sourceState struct {
	lane    int // the partition MaxLanePending bounds and drains are ordered by
	re      *stream.Reorderer[trajectory.Point]
	hasLast bool
	last    trajectory.Point // last accepted point, the speed-gate anchor
	matcher *uncertain.OnlineMatcher
}

// Result is one cleaned output point, as Drain returns them: Src is its
// source's rank, its index into the ids Drain returns beside them, and
// Edge the matched edge when HasEdge (only over a road network).
type Result struct {
	Src     uint32
	HasEdge bool
	T, X, Y float64
	Edge    int
}

// chunkSource is one dictionary entry of the chunk being applied,
// resolved for all of its rows: its rank (-1 while it has none), lane.
type chunkSource struct{ rank, lane int }

// streamSession is one client's stream state between calls.
type streamSession struct {
	id       string
	e        *Engine
	lateness float64 // per-source watermark lateness, event-time seconds
	maxSpeed float64 // speed gate bound, m/s (0 disables)

	mu         sync.Mutex
	closed     bool
	lanes      int            // lane count, in [1, MaxLanes]
	chunkSrcs  []chunkSource  // apply scratch, kept across chunks: the chunk's dictionary resolved
	order      []uint32       // apply scratch: the chunk's row indices, lane-major
	srcOrder   map[string]int // source id -> first-appearance rank
	srcIDs     []string       // source ids by rank
	sources    []*sourceState // source states by rank; nil for a source a snapshot knows without one
	results    []Result       // cleaned, undrained
	lastActive time.Time

	ingested, emitted, late, outliers int

	// Durability bookkeeping (durability.go).
	chunkIdx  uint64 // chunks applied; replay skips records at or below it
	clientSeq uint64 // highest client-supplied seq, for retry dedup
	sinceSnap int    // chunks since the last snapshot record

	// Retention floors (retention.go): the lowest WAL seq this session
	// still needs for recovery is snapSeq (a snapshot supersedes all of
	// its earlier records), falling back to openSeq before the first
	// snapshot. 0 means unknown — the session pins the whole log.
	openSeq uint64 // seq of this session's recSessionOpen record
	snapSeq uint64 // seq of the latest recSnapshot record
}

// newSession builds an empty session: the one constructor behind a
// live open, a replayed open record and a snapshot restore.
func (e *Engine) newSession(id string, lateness, maxSpeed float64, lanes int, now time.Time) *streamSession {
	return &streamSession{
		id: id, e: e, lateness: lateness, maxSpeed: maxSpeed,
		lanes: lanes, srcOrder: map[string]int{}, lastActive: now,
	}
}

// noteSource returns src's rank, giving it the next one, and a copy of
// src the session owns, on first sight. Caller holds ss.mu.
func (ss *streamSession) noteSource(src string) int {
	k, ok := ss.srcOrder[src]
	if !ok {
		src = strings.Clone(src) // a chunk's ids may be views of a body or a payload
		k = len(ss.srcIDs)
		ss.srcOrder[src] = k
		ss.srcIDs = append(ss.srcIDs, src)
		ss.sources = append(ss.sources, nil)
	}
	return k
}

// sourceAt returns the state of the source ranked k, creating it on
// first sight in the lane its id hashes to: the one place a source is
// given its lane. Caller holds ss.mu.
func (ss *streamSession) sourceAt(k int) *sourceState {
	st := ss.sources[k]
	if st == nil {
		st = &sourceState{
			lane: stream.LaneFor(ss.srcIDs[k], ss.lanes),
			re:   stream.NewReorderer[trajectory.Point](ss.lateness),
		}
		if ss.e.snapper != nil {
			st.matcher = uncertain.NewOnlineMatcher(
				ss.e.cfg.Stream.Network, ss.e.snapper, uncertain.MatchOptions{}, matchLag)
		}
		ss.sources[k] = st
	}
	return st
}

// emitMatched appends the points a matcher committed as result rows of
// the source ranked k: the snapped position and the matched edge.
func emitMatched(res []Result, k int, matched []uncertain.Matched) []Result {
	for _, m := range matched {
		res = append(res, Result{Src: uint32(k), HasEdge: true, T: m.Point.T, X: m.Snap.Pos.X, Y: m.Snap.Pos.Y, Edge: int(m.Snap.Edge)})
	}
	return res
}

// clean runs one released (in-order) point of the source ranked k
// through the incremental cleaner, appending any emitted points to
// ss.results; it reports whether the speed gate dropped the point.
// Caller holds ss.mu.
func (ss *streamSession) clean(st *sourceState, k int, pt trajectory.Point) (outlier bool) {
	if st.hasLast && ss.maxSpeed > 0 {
		dt := pt.T - st.last.T
		if dt <= 0 || st.last.Pos.Dist(pt.Pos)/dt > ss.maxSpeed {
			return true
		}
	}
	st.last, st.hasLast = pt, true
	if st.matcher != nil {
		ss.results = emitMatched(ss.results, k, st.matcher.Push(pt))
		return false
	}
	ss.results = append(ss.results, Result{Src: uint32(k), T: pt.T, X: pt.Pos.X, Y: pt.Pos.Y})
	return false
}

// Ack is what one ingested chunk is answered with.
type Ack struct {
	Session        string `json:"session"`
	Ingested       int    `json:"ingested"`
	Released       int    `json:"released"`
	PendingReorder int    `json:"pending_reorder"`
	PendingResults int    `json:"pending_results"`
	Duplicate      bool   `json:"duplicate,omitempty"` // chunk already applied (seq retry)
}

// ingest applies one parsed chunk atomically: backpressure is checked
// up front, so a rejected chunk leaves the session untouched. With a
// durable log, the chunk record is persisted (and, under fsync=always,
// fsynced) before it is applied — the ack never claims more than the
// disk holds. clientSeq, when non-zero, must increase chunk over
// chunk; a replayed seq is acknowledged as a duplicate without being
// applied, which is what makes client retries after a crash or a lost
// response idempotent.
func (ss *streamSession) ingest(c *Chunk, clientSeq uint64, now time.Time) (Ack, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return Ack{}, ErrSessionGone
	}
	ss.lastActive = now
	if clientSeq > 0 && clientSeq <= ss.clientSeq {
		ss.e.m.dup.Inc()
		return Ack{
			Session:        ss.id,
			Duplicate:      true,
			PendingReorder: ss.pendingReorderLocked(),
			PendingResults: len(ss.results),
		}, nil
	}
	cfg := &ss.e.cfg.Stream
	var pending [MaxLanes]int
	for _, st := range ss.sources {
		if st != nil {
			pending[st.lane] += st.re.Pending()
		}
	}
	laneRows := ss.resolveLocked(c)
	for i, n := range laneRows {
		if n > 0 && pending[i]+n > cfg.MaxLanePending {
			ss.chunkSrcs = nil // only an accepted chunk sizes the scratch
			return Ack{}, ErrLaneFull
		}
	}
	if len(ss.results)+c.Len() > cfg.MaxResults {
		ss.chunkSrcs = nil
		return Ack{}, ErrResultsFull
	}
	durable := ss.e.wal != nil
	if durable {
		if err := ss.persistChunkLocked(c, clientSeq); err != nil {
			return Ack{}, err
		}
	}
	ack := ss.applyLocked(c, &laneRows)
	ss.chunkIdx++
	if clientSeq > 0 {
		ss.clientSeq = clientSeq
	}
	ss.sinceSnap++
	if durable && ss.sinceSnap >= ss.e.cfg.Durability.SnapshotEvery {
		ss.snapshotLocked()
	}
	return ack, nil
}

// resolveLocked resolves each entry of c's dictionary once, into
// ss.chunkSrcs: its rank if the session has one, and its lane, its
// state's or, without one, LaneFor of its id. It notes nothing, so a
// chunk refused after it leaves no trace. It returns the rows per lane.
// Caller holds ss.mu.
func (ss *streamSession) resolveLocked(c *Chunk) (laneRows [MaxLanes]int) {
	srcs := ss.chunkSrcs[:0]
	for _, src := range c.srcs {
		cs := chunkSource{rank: -1}
		if k, ok := ss.srcOrder[src]; ok {
			cs.rank = k
		}
		if cs.rank >= 0 && ss.sources[cs.rank] != nil {
			cs.lane = ss.sources[cs.rank].lane
		} else {
			cs.lane = stream.LaneFor(src, ss.lanes)
		}
		srcs = append(srcs, cs)
	}
	for _, k := range c.idx {
		laneRows[srcs[k].lane]++
	}
	ss.chunkSrcs = srcs
	return laneRows
}

// applyLocked applies a chunk resolveLocked has resolved, whose rows
// per lane are laneRows. It is the shared apply path: live ingest and
// WAL replay both fold chunks through it, which is what makes recovery
// deterministic. The chunk's new sources are ranked in dictionary
// order, the order of their first rows, and the rows run lane by lane,
// in arrival order within a lane, so the result rows are lane-major.
// Caller holds ss.mu.
func (ss *streamSession) applyLocked(c *Chunk, laneRows *[MaxLanes]int) Ack {
	for k := range ss.chunkSrcs {
		if cs := &ss.chunkSrcs[k]; cs.rank < 0 {
			cs.rank = ss.noteSource(c.srcs[k])
		}
	}
	// Order the rows lane-major: a counting sort of their indices.
	var next [MaxLanes]int
	for l := 1; l < ss.lanes; l++ {
		next[l] = next[l-1] + laneRows[l-1]
	}
	ss.order = slices.Grow(ss.order[:0], len(c.idx))[:len(c.idx)]
	for i, k := range c.idx {
		l := ss.chunkSrcs[k].lane
		ss.order[next[l]] = uint32(i)
		next[l]++
	}
	if ss.results == nil {
		ss.results = Results.Get()
	}
	before := len(ss.results)
	late, outliers := 0, 0
	for _, i := range ss.order {
		k, pt := ss.chunkSrcs[c.idx[i]].rank, c.pts[i]
		st := ss.sourceAt(k)
		lateBefore := st.re.LateCount()
		for _, rel := range st.re.Push(stream.Event[trajectory.Point]{Time: pt.T, Value: pt}) {
			if ss.clean(st, k, rel.Value) {
				outliers++
			}
		}
		late += st.re.LateCount() - lateBefore
	}
	released := len(ss.results) - before
	ss.ingested += c.Len()
	ss.emitted += released
	ss.late += late
	ss.outliers += outliers
	m := &ss.e.m
	m.ingested.Add(uint64(c.Len()))
	m.emitted.Add(uint64(released))
	m.late.Add(uint64(late))
	m.outlier.Add(uint64(outliers))
	return Ack{
		Session:        ss.id,
		Ingested:       c.Len(),
		Released:       released,
		PendingReorder: ss.pendingReorderLocked(),
		PendingResults: len(ss.results),
	}
}

// pendingReorderLocked sums the source reorder buffers plus any
// matcher lag. Caller holds ss.mu.
func (ss *streamSession) pendingReorderLocked() int {
	n := 0
	for _, st := range ss.sources {
		if st == nil {
			continue
		}
		n += st.re.Pending()
		if st.matcher != nil {
			n += st.matcher.Pending()
		}
	}
	return n
}

// drain is Engine.Drain on the session.
func (ss *streamSession) drain(flush bool, now time.Time) ([]Result, []string, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, nil, ErrSessionGone
	}
	ss.lastActive = now
	// A drain changes state the client observes (results leave the
	// buffer; flush advances the matchers), so it is logged before it
	// runs: replay re-runs it and discards the output, and the rows
	// this call delivers are never delivered again after a crash.
	if ss.e.wal != nil && (flush || len(ss.results) > 0) {
		if _, err := ss.e.persist(recDrain2, func(b []byte) []byte { return appendFlagRec(b, ss.id, flush) }); err != nil {
			return nil, nil, err
		}
	}
	out, srcs := ss.drainLocked(flush)
	return out, srcs, nil
}

// drainLocked is the drain state transition, shared by the live path
// and WAL replay. Caller holds ss.mu.
func (ss *streamSession) drainLocked(flush bool) ([]Result, []string) {
	if flush {
		emittedBefore := len(ss.results)
		outliers := 0
		// Flush per source in first-appearance order — reorder buffer
		// first, then the matcher's decision lag — so the tail of the
		// output is deterministic regardless of lane hashing.
		for k, st := range ss.sources {
			if st == nil {
				continue
			}
			for _, rel := range st.re.Flush() {
				if ss.clean(st, k, rel.Value) {
					outliers++
				}
			}
			if st.matcher != nil {
				ss.results = emitMatched(ss.results, k, st.matcher.Flush())
			}
		}
		released := len(ss.results) - emittedBefore
		ss.emitted += released
		ss.outliers += outliers
		ss.e.m.emitted.Add(uint64(released))
		ss.e.m.outlier.Add(uint64(outliers))
	}
	out := ss.results
	ss.results = nil
	srcs := append([]string(nil), ss.srcIDs...)
	return out, srcs
}

// end closes the session and returns its final account; ok is false,
// and nothing happens, when it was closed already. An eviction only
// goes through if the session has been idle for longer than IdleTTL as
// of now — decided here, under the session's lock, so no chunk can land
// between the decision and the close.
func (ss *streamSession) end(evicted bool, now time.Time) (sum Summary, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed || (evicted && now.Sub(ss.lastActive) <= ss.e.cfg.Stream.IdleTTL) {
		return Summary{}, false
	}
	ss.closed = true
	if ss.e.wal != nil {
		ss.persistCloseLocked(evicted)
	}
	return Summary{
		Session:  ss.id,
		Ingested: ss.ingested, Emitted: ss.emitted, Late: ss.late, Outliers: ss.outliers,
		Dropped: len(ss.results) + ss.pendingReorderLocked(),
	}, true
}

const (
	maxSlab      = 1 << 14 // results a pooled slab, or rows a kept Chunk, holds at most
	maxPooledBuf = 1 << 20 // an encode buffer one big record grew past this is not pooled
)

// Results recycles the results slab, the one slab that crosses the
// engine's boundary: applyLocked takes one, Drain hands it to the
// caller and forgets it, and the caller renders it and puts it back.
var Results resultSlabs

type resultSlabs struct{ p sync.Pool }

func (rp *resultSlabs) Get() []Result {
	s, _ := rp.p.Get().([]Result)
	return s
}

// Put pools the slab, unless it grew past maxSlab. A result holds no
// pointer, so a pooled slab pins nothing.
func (rp *resultSlabs) Put(s []Result) {
	if cap(s) == 0 || cap(s) > maxSlab {
		return
	}
	rp.p.Put(s[:0])
}
