package session

// The session state machine: what one client's stream is between calls,
// and the apply, drain and close transitions the live path and WAL
// replay share.

import (
	"sync"
	"time"

	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// Sample is one ingested point: the source id plus the sample.
type Sample struct {
	Src string
	Pt  trajectory.Point
}

// Event is one chunk row as the engine takes it, keyed by event time.
type Event = stream.Event[Sample]

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

// Result is one cleaned output point, as Drain returns them. Edge is set
// only when a road network is loaded and the point was matched.
type Result struct {
	Source string  `json:"source"`
	T      float64 `json:"t"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Edge   *int    `json:"edge,omitempty"`
}

// streamSession is one client's stream state between calls.
type streamSession struct {
	id       string
	e        *Engine
	lateness float64 // per-source watermark lateness, event-time seconds
	maxSpeed float64 // speed gate bound, m/s (0 disables)

	mu         sync.Mutex
	closed     bool
	lanes      int            // lane count, in [1, MaxLanes]
	laneEvents [][]Event      // fan-out scratch, kept across chunks
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

// noteSource returns src's rank, giving it the next one on first sight.
// Caller holds ss.mu.
func (ss *streamSession) noteSource(src string) int {
	k, ok := ss.srcOrder[src]
	if !ok {
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

// emitMatched appends the points a matcher committed as result rows:
// the snapped position and the matched edge.
func emitMatched(res []Result, src string, matched []uncertain.Matched) []Result {
	for _, m := range matched {
		e := int(m.Snap.Edge)
		res = append(res, Result{Source: src, T: m.Point.T, X: m.Snap.Pos.X, Y: m.Snap.Pos.Y, Edge: &e})
	}
	return res
}

// clean runs one released (in-order) point through the incremental
// cleaner, appending any emitted points to ss.results; it reports
// whether the speed gate dropped the point. Caller holds ss.mu.
func (ss *streamSession) clean(st *sourceState, src string, pt trajectory.Point) (outlier bool) {
	if st.hasLast && ss.maxSpeed > 0 {
		dt := pt.T - st.last.T
		if dt <= 0 || st.last.Pos.Dist(pt.Pos)/dt > ss.maxSpeed {
			return true
		}
	}
	st.last, st.hasLast = pt, true
	if st.matcher != nil {
		ss.results = emitMatched(ss.results, src, st.matcher.Push(pt))
		return false
	}
	ss.results = append(ss.results, Result{Source: src, T: pt.T, X: pt.Pos.X, Y: pt.Pos.Y})
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
func (ss *streamSession) ingest(events []Event, clientSeq uint64, now time.Time) (Ack, error) {
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
	lanes := ss.fanOutLocked(events)
	for i, le := range lanes {
		if len(le) > 0 && pending[i]+len(le) > cfg.MaxLanePending {
			ss.laneEvents = nil // only an accepted chunk, MaxLanePending a lane at most, sizes the scratch
			return Ack{}, ErrLaneFull
		}
	}
	if len(ss.results)+len(events) > cfg.MaxResults {
		ss.laneEvents = nil
		return Ack{}, ErrResultsFull
	}
	durable := ss.e.wal != nil
	if durable {
		if err := ss.persistChunkLocked(events, clientSeq); err != nil {
			return Ack{}, err
		}
	}
	ack := ss.applyLocked(events, lanes)
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

// fanOutLocked partitions events by source into the session's lane
// scratch. Caller holds ss.mu.
func (ss *streamSession) fanOutLocked(events []Event) [][]Event {
	ss.laneEvents = stream.FanOutInto(ss.laneEvents, events, ss.lanes,
		func(e Event) string { return e.Value.Src })
	return ss.laneEvents
}

// applyLocked runs one accepted chunk through the lanes in index
// order, so the result rows are lane-major. It is the shared apply
// path: live ingest and WAL replay both fold chunks through it, which
// is what makes recovery deterministic. Caller holds ss.mu and has
// already fanned events out.
func (ss *streamSession) applyLocked(events []Event, lanes [][]Event) Ack {
	for i := range events {
		ss.noteSource(events[i].Value.Src)
	}
	if ss.results == nil {
		ss.results = Results.Get()
	}
	before := len(ss.results)
	late, outliers := 0, 0
	for _, evs := range lanes {
		for _, e := range evs {
			st := ss.sourceAt(ss.srcOrder[e.Value.Src])
			lateBefore := st.re.LateCount()
			for _, rel := range st.re.Push(stream.Event[trajectory.Point]{Time: e.Time, Value: e.Value.Pt}) {
				if ss.clean(st, e.Value.Src, rel.Value) {
					outliers++
				}
			}
			late += st.re.LateCount() - lateBefore
		}
	}
	released := len(ss.results) - before
	ss.ingested += len(events)
	ss.emitted += released
	ss.late += late
	ss.outliers += outliers
	m := &ss.e.m
	m.ingested.Add(uint64(len(events)))
	m.emitted.Add(uint64(released))
	m.late.Add(uint64(late))
	m.outlier.Add(uint64(outliers))
	return Ack{
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
			src := ss.srcIDs[k]
			for _, rel := range st.re.Flush() {
				if ss.clean(st, src, rel.Value) {
					outliers++
				}
			}
			if st.matcher != nil {
				ss.results = emitMatched(ss.results, src, st.matcher.Flush())
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

// SlabPool recycles slices whose owner hands them over and forgets
// them. Put clears the slab, so a pooled one pins no source strings or
// edge ints, and leaves one that grew past maxSlab to the GC.
type SlabPool[T any] struct{ p sync.Pool }

const (
	maxSlab      = 1 << 14 // elements
	maxPooledBuf = 1 << 20 // an encode buffer one big record grew past this is not pooled
)

// The two slabs that cross the engine's boundary. Neither side keeps a
// reference past its hand-over: the engine copies what it keeps of the
// events, and forgets the results at the drain.
var (
	Events  SlabPool[Event]  // caller: Get -> decode a chunk into it -> Ingest -> Put
	Results SlabPool[Result] // applyLocked: Get -> Drain -> caller renders -> Put
)

func (sp *SlabPool[T]) Get() []T {
	s, _ := sp.p.Get().([]T)
	return s
}

func (sp *SlabPool[T]) Put(s []T) {
	if cap(s) == 0 || cap(s) > maxSlab {
		return
	}
	clear(s)
	sp.p.Put(s[:0])
}
