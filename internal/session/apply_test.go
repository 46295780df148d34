package session

// The chunk apply against the algorithm it replaced. The reference
// below keeps every row's source as a string: it fans a chunk out by
// hashing each row's id (stream.FanOut), ranks sources through a
// string-keyed map as rows arrive, builds the chunk record's dictionary
// with a map, and names a result's source by id. The engine resolves
// each dictionary entry once per chunk and names a result's source by
// rank; the two must answer and write the same bytes.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/roadnet"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// refResult is a result as the reference keeps it: its source by id,
// its edge by pointer.
type refResult struct {
	src     string
	t, x, y float64
	edge    *int
}

// refSession is the session state machine with every row's source a
// string. Its source states are the engine's type, which the snapshot's
// per-source encoding (appendSource) reads.
type refSession struct {
	id                  string
	lateness, maxSpeed  float64
	lanes               int
	maxPending, maxRes  int
	net                 *roadnet.Graph
	snapper             *roadnet.Snapper
	srcOrder            map[string]int
	srcIDs              []string
	sources             []*sourceState
	results             []refResult
	chunkIdx, clientSeq uint64

	ingested, emitted, late, outliers int
}

func (rs *refSession) noteSource(src string) int {
	k, ok := rs.srcOrder[src]
	if !ok {
		k = len(rs.srcIDs)
		rs.srcOrder[src] = k
		rs.srcIDs = append(rs.srcIDs, src)
		rs.sources = append(rs.sources, nil)
	}
	return k
}

func (rs *refSession) sourceAt(k int) *sourceState {
	if rs.sources[k] == nil {
		st := &sourceState{lane: stream.LaneFor(rs.srcIDs[k], rs.lanes), re: stream.NewReorderer[trajectory.Point](rs.lateness)}
		if rs.net != nil {
			st.matcher = uncertain.NewOnlineMatcher(rs.net, rs.snapper, uncertain.MatchOptions{}, matchLag)
		}
		rs.sources[k] = st
	}
	return rs.sources[k]
}

func (rs *refSession) emitMatched(src string, matched []uncertain.Matched) {
	for _, m := range matched {
		e := int(m.Snap.Edge)
		rs.results = append(rs.results, refResult{src, m.Point.T, m.Snap.Pos.X, m.Snap.Pos.Y, &e})
	}
}

func (rs *refSession) clean(st *sourceState, src string, pt trajectory.Point) bool {
	if st.hasLast && rs.maxSpeed > 0 {
		dt := pt.T - st.last.T
		if dt <= 0 || st.last.Pos.Dist(pt.Pos)/dt > rs.maxSpeed {
			return true
		}
	}
	st.last, st.hasLast = pt, true
	if st.matcher != nil {
		rs.emitMatched(src, st.matcher.Push(pt))
		return false
	}
	rs.results = append(rs.results, refResult{src, pt.T, pt.Pos.X, pt.Pos.Y, nil})
	return false
}

func (rs *refSession) pendingReorder() int {
	n := 0
	for _, st := range rs.sources {
		if st != nil {
			n += st.re.Pending()
			if st.matcher != nil {
				n += st.matcher.Pending()
			}
		}
	}
	return n
}

// ingest is the old streamSession.ingest: fan out by id, bound check,
// rank sources row by row, apply the lanes in order.
func (rs *refSession) ingest(rows []row) (Ack, error) {
	events := make([]stream.Event[row], len(rows))
	for i, r := range rows {
		events[i] = stream.Event[row]{Time: r.pt.T, Value: r}
	}
	var pending [MaxLanes]int
	for _, st := range rs.sources {
		if st != nil {
			pending[st.lane] += st.re.Pending()
		}
	}
	lanes := stream.FanOut(events, rs.lanes, func(e stream.Event[row]) string { return e.Value.src })
	for i, le := range lanes {
		if len(le) > 0 && pending[i]+len(le) > rs.maxPending {
			return Ack{}, ErrLaneFull
		}
	}
	if len(rs.results)+len(rows) > rs.maxRes {
		return Ack{}, ErrResultsFull
	}
	for _, r := range rows {
		rs.noteSource(r.src)
	}
	before := len(rs.results)
	late, outliers := 0, 0
	for _, evs := range lanes {
		for _, e := range evs {
			st := rs.sourceAt(rs.srcOrder[e.Value.src])
			lateBefore := st.re.LateCount()
			for _, rel := range st.re.Push(stream.Event[trajectory.Point]{Time: e.Time, Value: e.Value.pt}) {
				if rs.clean(st, e.Value.src, rel.Value) {
					outliers++
				}
			}
			late += st.re.LateCount() - lateBefore
		}
	}
	released := len(rs.results) - before
	rs.ingested += len(rows)
	rs.emitted += released
	rs.late += late
	rs.outliers += outliers
	rs.chunkIdx++
	return Ack{Session: rs.id, Ingested: len(rows), Released: released, PendingReorder: rs.pendingReorder(), PendingResults: len(rs.results)}, nil
}

func (rs *refSession) drain(flush bool) []refResult {
	if flush {
		before, outliers := len(rs.results), 0
		for k, st := range rs.sources {
			if st == nil {
				continue
			}
			for _, rel := range st.re.Flush() {
				if rs.clean(st, rs.srcIDs[k], rel.Value) {
					outliers++
				}
			}
			if st.matcher != nil {
				rs.emitMatched(rs.srcIDs[k], st.matcher.Flush())
			}
		}
		rs.emitted += len(rs.results) - before
		rs.outliers += outliers
	}
	out := rs.results
	rs.results = nil
	return out
}

// refChunkRecord is the old recEncoder.chunk: the dictionary built
// with a map as the rows are read.
func refChunkRecord(session string, chunkIdx, clientSeq uint64, rows []row) []byte {
	dict := map[string]uint32{}
	var srcs []string
	var idx []uint32
	for _, r := range rows {
		k, ok := dict[r.src]
		if !ok {
			k = uint32(len(srcs))
			dict[r.src] = k
			srcs = append(srcs, r.src)
		}
		idx = append(idx, k)
	}
	b := le.AppendUint64(le.AppendUint64(append([]byte(nil), recMagic...), chunkIdx), clientSeq)
	b = append(le.AppendUint32(b, uint32(len(session))), session...)
	b = le.AppendUint32(b, uint32(len(srcs)))
	for _, src := range srcs {
		b = append(le.AppendUint32(b, uint32(len(src))), src...)
	}
	b = le.AppendUint32(b, uint32(len(rows)))
	for _, k := range idx {
		if len(srcs) <= 256 {
			b = append(b, byte(k))
		} else {
			b = le.AppendUint32(b, k)
		}
	}
	for _, col := range []func(p trajectory.Point) float64{
		func(p trajectory.Point) float64 { return p.T },
		func(p trajectory.Point) float64 { return p.Pos.X },
		func(p trajectory.Point) float64 { return p.Pos.Y },
	} {
		for _, r := range rows {
			b = appendF64(b, col(r.pt))
		}
	}
	return b
}

// snapshot is the old appendSnapshotLocked: each result's dictionary
// index looked up by its id.
func (rs *refSession) snapshot() []byte {
	b := appendParams(appendHeader(nil, rs.id), rs.lateness, rs.maxSpeed, rs.lanes)
	b = le.AppendUint64(le.AppendUint64(b, rs.chunkIdx), rs.clientSeq)
	for _, n := range [4]int{rs.ingested, rs.emitted, rs.late, rs.outliers} {
		b = le.AppendUint64(b, uint64(n))
	}
	b = le.AppendUint32(b, uint32(len(rs.srcIDs)))
	for _, src := range rs.srcIDs {
		b = append(le.AppendUint32(b, uint32(len(src))), src...)
	}
	res := rs.results
	b = le.AppendUint32(b, uint32(len(res)))
	for _, r := range res {
		if k := rs.srcOrder[r.src]; len(rs.srcIDs) > 256 {
			b = le.AppendUint32(b, uint32(k))
		} else {
			b = append(b, byte(k))
		}
	}
	edges := 0
	for _, col := range []func(r refResult) float64{
		func(r refResult) float64 { return r.t },
		func(r refResult) float64 { return r.x },
		func(r refResult) float64 { return r.y },
	} {
		for _, r := range res {
			b = appendF64(b, col(r))
		}
	}
	for _, r := range res {
		if r.edge != nil {
			edges++
		}
	}
	b = le.AppendUint32(b, uint32(edges))
	if 0 < edges && edges < len(res) {
		for _, r := range res {
			b = appendBool(b, r.edge != nil)
		}
	}
	for _, r := range res {
		if r.edge != nil {
			b = le.AppendUint64(b, uint64(*r.edge))
		}
	}
	var states []byte
	m := 0
	for k, st := range rs.sources {
		if st != nil {
			m++
			states = appendSource(le.AppendUint32(states, uint32(k)), st)
		}
	}
	return append(le.AppendUint32(b, uint32(m)), states...)
}

// randomChunk is a chunk of n rows over sources, each row's time near its
// source's clock: mostly moving forward, some late by far more than
// any lateness, some repeating the stamp of the row before.
func randomChunk(rng *rand.Rand, sources []string, clock map[string]float64, n int) []row {
	rows := make([]row, n)
	active := sources
	if rng.Intn(2) == 0 {
		active = sources[:1+rng.Intn(len(sources))]
	}
	for i := range rows {
		src := active[rng.Intn(len(active))]
		t := clock[src] + rng.Float64()*3 - 0.5
		switch rng.Intn(10) {
		case 0:
			t -= 50 // late
		case 1:
			if i > 0 {
				t = rows[i-1].pt.T // a duplicate stamp
			}
		}
		clock[src] = math.Max(clock[src], t)
		rows[i] = ev(src, t, rng.Float64()*300, rng.Float64()*200)
	}
	return rows
}

// chunkRecordAt reads the payload of the record at seq.
func chunkRecordAt(t *testing.T, l *store.Log, seq uint64) []byte {
	t.Helper()
	var p []byte
	if err := l.ReadSeqs([]uint64{seq}, func(r store.Record) error {
		p = append(p, r.Payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChunkApplyMatchesStringKeyedReference drives random chunks
// through a durable engine and through the reference: lane counts from
// 1 to 64, 1 to 300 sources (so a chunk's dictionary crosses the
// record's 256-entry index width), late and duplicate stamps, bounds
// small enough to refuse chunks, and a road network on half the seeds.
// After every chunk the acks (or refusals) and the snapshots must be
// equal, and so must each accepted chunk's record, byte for byte, and
// every drain, with each result's rank resolved to its id.
func TestChunkApplyMatchesStringKeyedReference(t *testing.T) {
	wide := 0 // accepted chunks of more than 256 sources
	for seed, lanes := range []int{1, 2, 3, 4, 7, 64, 1, 2, 3, 4, 7, 64} {
		rng := rand.New(rand.NewSource(int64(seed)))
		var net *roadnet.Graph
		if seed%2 == 1 {
			net = smallCity()
		}
		cfg := Config{
			Stream:     StreamConfig{Network: net, MaxLanePending: 60 + rng.Intn(1200), MaxResults: 300 + rng.Intn(4000)},
			Durability: DurabilityConfig{Dir: "wal", FS: faults.NewCrashFS(), SnapshotEvery: 1 << 30},
		}
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lateness, maxSpeed := float64(rng.Intn(4)), float64(rng.Intn(2)*40)
		id, err := e.OpenSession(lateness, maxSpeed, lanes, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		ss, _ := e.session(id)
		ref := &refSession{
			id: id, lateness: lateness, maxSpeed: maxSpeed, lanes: lanes,
			maxPending: e.cfg.Stream.MaxLanePending, maxRes: e.cfg.Stream.MaxResults,
			net: net, srcOrder: map[string]int{},
		}
		if net != nil {
			ref.snapper = roadnet.NewSnapper(net, snapCell)
		}
		sources := make([]string, 1+rng.Intn(300))
		if seed%3 == 0 {
			sources = make([]string, 257+rng.Intn(44))
		}
		for i := range sources {
			sources[i] = fmt.Sprintf("veh-%03d", i)
		}
		sources[0] = `"q"` + "\xff" // an id needing escapes
		clock := map[string]float64{}
		for c := 0; c < 30; c++ {
			rows := randomChunk(rng, sources, clock, 1+rng.Intn(1000))
			want, wantErr := ref.ingest(rows)
			chunk := chunkOf(rows)
			got, err := e.Ingest(id, chunk, 0, time.Time{})
			if !errors.Is(err, wantErr) || !errors.Is(wantErr, err) || got != want {
				t.Fatalf("seed %d chunk %d: ack %+v, %v; reference %+v, %v", seed, c, got, err, want, wantErr)
			}
			if err == nil {
				if len(chunk.srcs) > 256 {
					wide++
				}
				rec, want := chunkRecordAt(t, e.wal, e.wal.LastSeq()), refChunkRecord(id, ref.chunkIdx, 0, rows)
				if !bytes.Equal(rec, want) {
					t.Fatalf("seed %d chunk %d: a %d-byte chunk record, the reference's is %d bytes", seed, c, len(rec), len(want))
				}
			}
			ss.mu.Lock()
			snap := ss.appendSnapshotLocked(nil)
			ss.mu.Unlock()
			if want := ref.snapshot(); !bytes.Equal(snap, want) {
				t.Fatalf("seed %d chunk %d: a %d-byte snapshot, the reference's is %d bytes", seed, c, len(snap), len(want))
			}
			if rng.Intn(4) > 0 {
				continue
			}
			flush := rng.Intn(3) == 0
			res, srcs, err := e.Drain(id, flush, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			wantRes := ref.drain(flush)
			if len(res) != len(wantRes) {
				t.Fatalf("seed %d chunk %d: drained %d results, reference %d", seed, c, len(res), len(wantRes))
			}
			for i, r := range res {
				w := wantRes[i]
				if srcs[r.Src] != w.src || r.T != w.t || r.X != w.x || r.Y != w.y || r.HasEdge != (w.edge != nil) || r.HasEdge && r.Edge != *w.edge {
					t.Fatalf("seed %d chunk %d: result %d is %q %+v, reference %q %+v", seed, c, i, srcs[r.Src], r, w.src, w)
				}
			}
			Results.Put(res)
		}
		e.Close()
	}
	if wide == 0 {
		t.Error("no chunk of more than 256 sources was accepted")
	}
}

// TestRefusedChunkNamingNewSourcesLeavesNoTrace: a chunk refused with
// ErrLaneFull, then one refused with ErrResultsFull, each naming a
// source the session has never seen, leave the session as a twin that
// never received them: the same snapshot, and the same ack for the
// next chunk.
func TestRefusedChunkNamingNewSourcesLeavesNoTrace(t *testing.T) {
	cfg := Config{Stream: StreamConfig{MaxLanePending: 8, MaxResults: 10}}
	open := func() (*Engine, string) {
		e := New(cfg)
		id, err := e.OpenSession(2, 0, 1, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		return e, id
	}
	track := func(src string, t0 float64, n int) *Chunk {
		var rows []row
		for i := 0; i < n; i++ {
			rows = append(rows, ev(src, t0+float64(i), float64(i), 0))
		}
		return chunkOf(rows)
	}
	twin, twinID := open()
	e, id := open()
	for _, src := range []string{"a", "b"} { // 8 results, 4 rows pending
		if _, err := twin.Ingest(twinID, track(src, 1, 6), 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(id, track(src, 1, 6), 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Ingest(id, track("c", 1, 5), 0, time.Time{}); !errors.Is(err, ErrLaneFull) {
		t.Fatalf("5 rows over 4 pending in a lane of 8: %v, want ErrLaneFull", err)
	}
	if _, err := e.Ingest(id, track("d", 1, 3), 0, time.Time{}); !errors.Is(err, ErrResultsFull) {
		t.Fatalf("3 rows over 8 results of 10: %v, want ErrResultsFull", err)
	}
	snapshot := func(eng *Engine, id string) []byte {
		ss, _ := eng.session(id)
		ss.mu.Lock()
		defer ss.mu.Unlock()
		return ss.appendSnapshotLocked(nil)
	}
	if got, want := snapshot(e, id), snapshot(twin, twinID); !bytes.Equal(got, want) {
		t.Fatalf("after two refused chunks the snapshot is %d bytes, the twin's %d", len(got), len(want))
	}
	got, err := e.Ingest(id, track("a", 7, 1), 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Ingest(twinID, track("a", 7, 1), 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.PendingReorder != 4 {
		t.Fatalf("the next ack is %+v, the twin's %+v (4 rows pending)", got, want)
	}
}
