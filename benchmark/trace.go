package main

// The traced run. The program under test is not modified, so spans are
// recorded from here: the root span of an op is the HTTP round trip as
// the client saw it, and its children are the calls into each layer's
// public function, replayed right after the op on the same input
// against shadow state (a shadow store.Log, Reorderers, OnlineMatchers
// and RTree that have seen exactly what the service has seen). The
// children are measured one after another and laid out back to back
// from the root's start, cut off at the root's end, so for every op the
// layers' self times and the root's self time add up to the round trip.
// What the root keeps for itself — HTTP, the CSV/JSON/gob codecs, the
// session lock, snapshots — is the remainder that later in-program
// spans have to explain.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/index"
	"sidq/internal/roadnet"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// Span names: one per layer boundary.
const (
	spHandle    = "server.handle"
	spResults   = "server.results"
	spFanout    = "stream.fanout"
	spReorder   = "stream.reorder"
	spAppend    = "store.append"
	spRead      = "store.read"
	spInsert    = "index.insert"
	spSearch    = "index.search"
	spMatch     = "uncertain.match"
	spKNearest  = "roadnet.knearest"
	spSnapDists = "roadnet.snapdists"
	spDecode    = "trajectory.decode"
	spEncode    = "trajectory.encode"
	spAssess    = "quality.assess"
	spPlanRun   = "core.plan_run"
)

// span is one row of a trace file. Times are nanoseconds since the
// trace began. Parent is 0 for the root span of an op.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

// tracer collects the spans of one client goroutine; it is not shared.
type tracer struct {
	epoch  time.Time
	client int
	spans  []span
	ops    int
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// root records the round trip of a new op and returns its span index.
func (t *tracer) root(name string, start, end time.Time) int {
	t.ops++
	return t.add(span{Op: t.ops*maxClients + t.client, Name: name, Start: t.since(start), End: t.since(end)})
}

// add appends s under an id that stays unique once the clients' lists
// are merged.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans)*maxClients + t.client + 1
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// child lays a replayed span of duration d inside parent, starting at
// *cursor (the end of the sibling before it), cut off at the parent's
// end. It returns the child's index.
func (t *tracer) child(parent int, name string, d time.Duration, cursor *int64) int {
	p := t.spans[parent]
	start := min(max(*cursor, p.Start), p.End)
	end := min(start+d.Nanoseconds(), p.End)
	*cursor = end
	return t.add(span{Parent: p.ID, Op: p.Op, Name: name, Start: start, End: end, Replayed: true})
}

// selfTimes returns each span's self time by id: its duration minus the
// part of its interval that its children cover. Children that overlap
// each other are not counted twice, and a child that reaches outside
// its parent only counts for the part inside.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if a < b {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64 = 0, math.MinInt64
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		self[s.ID] = max(0, s.End-s.Start) - covered
	}
	return self
}

// selfByName sums self times per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeTrace writes the merged spans of a traced window.
func writeTrace(path, workload string, seed int64, spans []span) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed,
		"root spans are client-observed round trips; replayed spans are layer calls repeated on shadow state after the op, laid out back to back inside their parent",
		spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- shadow state --------------------------------------------------

// shadowChunk has the shape of the service's WAL chunk record, so the
// shadow log appends payloads of the size the service appends.
type shadowChunk struct {
	Session   string
	ChunkIdx  uint64
	ClientSeq uint64
	Events    []shadowEvent
}

type shadowEvent struct {
	Src     string
	T, X, Y float64
}

const recChunk = 2 // the service's WAL record type for a chunk

// shadow is the layer state the replays run against. The log and the
// R-tree are shared by the clients, as they are in the service; source
// states belong to the one client that owns the source.
type shadow struct {
	log *store.Log

	mu  sync.Mutex // guards rt and ext, as historyIndex.mu does
	rt  *index.RTree
	ext map[string][2]float64 // entry id -> time bounds

	// Map matching, only with a road network: a second graph built from
	// the same seed, so the shadow engine's route cache is as cold or as
	// warm as the service's own at every op.
	graph   *roadnet.Graph
	snapper *roadnet.Snapper
	lag     int
}

func newShadow(dir string, opt store.Options, graph *roadnet.Graph) (*shadow, error) {
	l, _, err := store.Open(dir, opt)
	if err != nil {
		return nil, fmt.Errorf("open shadow log: %w", err)
	}
	sh := &shadow{log: l, rt: index.NewRTree(), ext: map[string][2]float64{}, graph: graph, lag: 5}
	if graph != nil {
		sh.snapper = roadnet.NewSnapper(graph, 100)
	}
	return sh, nil
}

func (sh *shadow) close() { sh.log.Close() }

// shadowSource is one source's shadow state.
type shadowSource struct {
	re        *stream.Reorderer[trajectory.Point]
	hasLast   bool
	last      trajectory.Point
	matcher   *uncertain.OnlineMatcher
	prevCands []roadnet.Snap
}

// shadowClient is one client's view of the shadow: its sources, its
// span list and scratch.
type shadowClient struct {
	sh       *shadow
	tr       *tracer // nil outside the traced window: state advances, no spans
	sources  map[string]*shadowSource
	chunkIdx map[string]uint64
	buf      bytes.Buffer
	dists    []float64
	released []srcPoint
}

func newShadowClient(sh *shadow) *shadowClient {
	return &shadowClient{sh: sh, sources: map[string]*shadowSource{}, chunkIdx: map[string]uint64{}}
}

func (sc *shadowClient) source(id string) *shadowSource {
	st := sc.sources[id]
	if st == nil {
		st = &shadowSource{re: stream.NewReorderer[trajectory.Point](streamLateness)}
		if sc.sh.snapper != nil {
			st.matcher = uncertain.NewOnlineMatcher(sc.sh.graph, sc.sh.snapper, uncertain.MatchOptions{}, sc.sh.lag)
		}
		sc.sources[id] = st
	}
	return st
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// ingest replays one acked chunk through the layers the service's
// ingest path crosses. With a tracer and a root span it records the
// replays as that root's children.
func (sc *shadowClient) ingest(root int, sessionID string, events []stream.Event[srcPoint]) error {
	sh := sc.sh
	// Encoding is the service's own work (server.self), not a layer's.
	sc.chunkIdx[sessionID]++
	rec := shadowChunk{Session: sessionID, ChunkIdx: sc.chunkIdx[sessionID], ClientSeq: sc.chunkIdx[sessionID],
		Events: make([]shadowEvent, len(events))}
	rect := geo.RectFromPoints(events[0].Value.pt.Pos)
	ext := [2]float64{events[0].Time, events[0].Time}
	for i, e := range events {
		rec.Events[i] = shadowEvent{Src: e.Value.src, T: e.Time, X: e.Value.pt.Pos.X, Y: e.Value.pt.Pos.Y}
		rect = rect.ExtendPoint(e.Value.pt.Pos)
		ext[0], ext[1] = math.Min(ext[0], e.Time), math.Max(ext[1], e.Time)
	}
	sc.buf.Reset()
	if err := gob.NewEncoder(&sc.buf).Encode(rec); err != nil {
		return fmt.Errorf("shadow: encode chunk: %w", err)
	}

	var lanes [][]stream.Event[srcPoint]
	dFanout := timed(func() {
		lanes = stream.FanOut(events, streamLanes, func(e stream.Event[srcPoint]) string { return e.Value.src })
	})

	var seq uint64
	var appendErr error
	dAppend := timed(func() { seq, appendErr = sh.log.Append(recChunk, sc.buf.Bytes()) })
	if appendErr != nil {
		return fmt.Errorf("shadow: append: %w", appendErr)
	}

	id := strconv.FormatUint(seq, 10)
	dInsert := timed(func() {
		sh.mu.Lock()
		sh.ext[id] = ext
		sh.rt.Insert(index.RectEntry{ID: id, Rect: rect})
		sh.mu.Unlock()
	})

	sc.released = sc.released[:0]
	dReorder := timed(func() {
		for _, lane := range lanes {
			for _, e := range lane {
				st := sc.source(e.Value.src)
				for _, rel := range st.re.Push(stream.Event[trajectory.Point]{Time: e.Time, Value: e.Value.pt}) {
					sc.released = append(sc.released, srcPoint{src: e.Value.src, pt: rel.Value})
				}
			}
		}
	})

	var dKNearest, dSnapCold, dSnapWarm, dPush time.Duration
	if sh.snapper != nil {
		eng := sh.graph.Engine()
		for _, r := range sc.released {
			st := sc.sources[r.src]
			// The service's speed gate, so the matchers see what its
			// matchers see.
			if st.hasLast {
				dt := r.pt.T - st.last.T
				if dt <= 0 || st.last.Pos.Dist(r.pt.Pos)/dt > sessionMaxSpeed {
					continue
				}
			}
			st.last, st.hasLast = r.pt, true

			var cs []roadnet.Snap
			dKNearest += timed(func() { cs = sh.snapper.KNearest(r.pt.Pos, 4) })
			if len(cs) == 0 {
				continue
			}
			if cap(sc.dists) < len(cs) {
				sc.dists = make([]float64, len(cs))
			}
			out := sc.dists[:len(cs)]
			snapDists := func() {
				for _, ck := range st.prevCands {
					eng.SnapDists(ck, cs, math.Inf(1), out)
				}
			}
			// First with the route cache as the service found it, then
			// the matcher itself, then once more warm: what Push spent
			// in SnapDists is the warm figure, what the service spent
			// is the first.
			dSnapCold += timed(snapDists)
			dPush += timed(func() { st.matcher.Push(r.pt) })
			dSnapWarm += timed(snapDists)
			st.prevCands = cs
		}
	}

	if sc.tr == nil || root < 0 {
		return nil
	}
	cursor := sc.tr.spans[root].Start
	sc.tr.child(root, spFanout, dFanout, &cursor)
	sc.tr.child(root, spAppend, dAppend, &cursor)
	sc.tr.child(root, spInsert, dInsert, &cursor)
	sc.tr.child(root, spReorder, dReorder, &cursor)
	if sh.snapper != nil {
		inner := cursor
		m := sc.tr.child(root, spMatch, max(0, dPush-dSnapWarm)+dSnapCold, &cursor)
		sc.tr.child(m, spKNearest, dKNearest, &inner)
		sc.tr.child(m, spSnapDists, dSnapCold, &inner)
	}
	return nil
}

// historyStats is what one replayed range query found.
type historyStats struct {
	wanted, scanned int
}

// history replays one range query: the R-tree search and the log's
// seq-range read, without decoding.
func (sc *shadowClient) history(root int, w window) (historyStats, error) {
	sh := sc.sh
	var seqs []uint64
	dSearch := timed(func() {
		sh.mu.Lock()
		for _, e := range sh.rt.Search(w.rect) {
			if ext := sh.ext[e.ID]; ext[1] < w.t0 || ext[0] > w.t1 {
				continue
			}
			seq, _ := strconv.ParseUint(e.ID, 10, 64)
			seqs = append(seqs, seq)
		}
		sh.mu.Unlock()
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	})
	st := historyStats{wanted: len(seqs)}
	var dRead time.Duration
	if len(seqs) > 0 {
		var err error
		dRead = timed(func() {
			err = sh.log.ReadRange(seqs[0], seqs[len(seqs)-1], func(store.Record) error { st.scanned++; return nil })
		})
		if err != nil {
			return st, fmt.Errorf("shadow: read range: %w", err)
		}
	}
	if sc.tr != nil && root >= 0 {
		cursor := sc.tr.spans[root].Start
		sc.tr.child(root, spSearch, dSearch, &cursor)
		sc.tr.child(root, spRead, dRead, &cursor)
	}
	return st, nil
}

// clean replays one /v1/clean request: decode, assess, plan and run,
// encode. One assessment is shown as plan-and-run's child; the planner
// assesses again after each round, and those stay in its self time.
func (sc *shadowClient) clean(root int, body []byte) error {
	var trs []*trajectory.Trajectory
	var err error
	dDecode := timed(func() { trs, err = trajectory.ReadCSVColumns(bytes.NewReader(body)) })
	if err != nil {
		return fmt.Errorf("shadow: decode: %w", err)
	}
	ds := &core.Dataset{Trajectories: trs, MaxSpeed: cleanMaxSpeed, ExpectedInterval: 1}
	dAssess := timed(func() { ds.Assess() })
	var cleaned *core.Dataset
	dPlanRun := timed(func() {
		cleaned, _, _, err = core.PlanAndRunIterativeWith(context.Background(), &core.Runner{Policy: core.SkipStage}, ds, core.DefaultTargets(), 3)
	})
	if err != nil {
		return fmt.Errorf("shadow: plan and run: %w", err)
	}
	sc.buf.Reset()
	dEncode := timed(func() { err = trajectory.WriteCSV(&sc.buf, cleaned.Trajectories) })
	if err != nil {
		return fmt.Errorf("shadow: encode: %w", err)
	}
	if sc.tr != nil && root >= 0 {
		cursor := sc.tr.spans[root].Start
		sc.tr.child(root, spDecode, dDecode, &cursor)
		inner := cursor
		p := sc.tr.child(root, spPlanRun, dPlanRun, &cursor)
		sc.tr.child(p, spAssess, min(dAssess, dPlanRun), &inner)
		sc.tr.child(root, spEncode, dEncode, &cursor)
	}
	return nil
}
