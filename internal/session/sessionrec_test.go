package session

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/roadnet"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// deepCopyLocked is an explicit copy of the session: every slice,
// reorderer and matcher the snapshot encoder reads, owned by
// nobody else. Caller holds ss.mu.
func deepCopyLocked(ss *streamSession) *streamSession {
	e := ss.e
	cp := e.newSession(ss.id, ss.lateness, ss.maxSpeed, ss.lanes, ss.lastActive)
	cp.chunkIdx, cp.clientSeq = ss.chunkIdx, ss.clientSeq
	cp.ingested, cp.emitted, cp.late, cp.outliers = ss.ingested, ss.emitted, ss.late, ss.outliers
	for _, src := range ss.srcIDs {
		cp.noteSource(src)
	}
	cp.results = append([]Result(nil), ss.results...)
	for k, st := range ss.sources {
		if st == nil {
			continue
		}
		c := cp.sourceAt(k)
		c.re, c.hasLast, c.last, c.matcher = stream.NewReordererFromState(st.re.State()), st.hasLast, st.last, nil
		if st.matcher != nil {
			c.matcher = uncertain.NewOnlineMatcherFromState(e.cfg.Stream.Network, e.snapper, uncertain.MatchOptions{}, matchLag, st.matcher.State())
		}
	}
	return cp
}

// snapshotOf is the session's state as the decoder returns it, read off
// the live session field by field. Caller holds ss.mu.
func snapshotOf(ss *streamSession) walSnapshot {
	s := walSnapshot{
		Session: ss.id, Lateness: ss.lateness, MaxSpeed: ss.maxSpeed, Lanes: ss.lanes,
		ChunkIdx: ss.chunkIdx, ClientSeq: ss.clientSeq, SrcIDs: ss.srcIDs, Results: ss.results,
		Ingested: ss.ingested, Emitted: ss.emitted, Late: ss.late, Outliers: ss.outliers,
	}
	for k, st := range ss.sources {
		if st == nil {
			continue
		}
		ws := walSource{Src: ss.srcIDs[k], Re: st.re.State(), HasLast: st.hasLast, Last: st.last}
		if st.matcher != nil {
			ms := st.matcher.State()
			ws.Matcher = &ms
		}
		s.Sources = append(s.Sources, ws)
	}
	return s
}

// sameBits reports where a and b differ, comparing floats by their bit
// patterns (so NaN payloads and -0 count) and a nil slice as equal to an
// empty one; "" when they do not.
func sameBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %#x vs %#x", path, math.Float64bits(a.Float()), math.Float64bits(b.Float()))
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d elements", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v vs nil %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return sameBits(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	default:
		panic("sameBits: unhandled kind " + a.Kind().String() + " at " + path)
	}
	return ""
}

// oddFloat draws from the values a float column must carry bit for bit.
func oddFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Float64frombits(0x7ff0000000000000 | (1 + rng.Uint64()%(1<<52-1))) // a NaN, payload and all
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return math.SmallestNonzeroFloat64
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

func oddPoint(rng *rand.Rand) trajectory.Point {
	return trajectory.Point{T: oddFloat(rng), Pos: geo.Pt(oddFloat(rng), oddFloat(rng))}
}

// randomSession builds a session whose every snapshot field holds
// random, hostile values: sources that need escaping or are empty,
// sources known but without state, results with and without edges
// (edge 0 among them), reorder buffers, speed-gate anchors and — on an
// engine with a network — lattices on some sources and not others.
func randomSession(e *Engine, rng *rand.Rand) *streamSession {
	ss := e.newSession(fmt.Sprintf("st-%06d", rng.Intn(1e6)), oddFloat(rng), oddFloat(rng), 1+rng.Intn(5), time.Time{})
	ss.chunkIdx, ss.clientSeq = rng.Uint64(), rng.Uint64()
	ss.ingested, ss.emitted, ss.late, ss.outliers = rng.Int(), -rng.Int(), rng.Intn(9), 0
	names := []string{"", "car-a", `quo"te`, "tab\tnl\n", "bad\xff", "ünï"}
	for n, d := 0, rng.Intn(300); n < d; n++ {
		src := fmt.Sprintf("veh-%d", n)
		if n < len(names) {
			src = names[n]
		}
		ss.noteSource(src)
	}
	switch rows := rng.Intn(40); {
	case len(ss.srcIDs) == 0 || rows == 0:
		if rng.Intn(2) == 0 {
			ss.results = make([]Result, 0, 4) // empty, not nil
		}
	default:
		edges := rng.Intn(3) // none, all, or some of the rows carry one
		for i := 0; i < rows; i++ {
			r := Result{Src: uint32(rng.Intn(len(ss.srcIDs))), T: oddFloat(rng), X: oddFloat(rng), Y: oddFloat(rng)}
			if edges == 1 || edges == 2 && rng.Intn(2) == 0 {
				r.Edge, r.HasEdge = rng.Intn(3)-1+rng.Intn(2)*rng.Int(), true
			}
			ss.results = append(ss.results, r)
		}
	}
	for rank := range ss.srcIDs {
		if rng.Intn(5) == 0 {
			continue // known to the session, no state: never sent a row of its own
		}
		re := stream.ReordererState[trajectory.Point]{Lateness: oddFloat(rng), Watermark: oddFloat(rng), Late: rng.Int(), Emitted: rng.Intn(100)}
		for n := rng.Intn(6); n > 0; n-- {
			re.Buf = append(re.Buf, stream.Event[trajectory.Point]{Time: oddFloat(rng), Value: oddPoint(rng)})
		}
		st := ss.sourceAt(rank)
		st.re, st.hasLast, st.last, st.matcher = stream.NewReordererFromState(re), rng.Intn(2) == 0, oddPoint(rng), nil
		if e.snapper != nil && rng.Intn(4) != 0 {
			var ms uncertain.MatcherState
			for c := rng.Intn(7); c > 0; c-- {
				k := 1 + rng.Intn(4)
				cands, logp, back := make([]roadnet.Snap, k), make([]float64, k), make([]int, k)
				for j := range cands {
					cands[j] = roadnet.Snap{Edge: roadnet.EdgeID(rng.Intn(e.cfg.Stream.Network.NumEdges())), Param: oddFloat(rng), Pos: geo.Pt(oddFloat(rng), oddFloat(rng)), Dist: oddFloat(rng)}
					logp[j] = oddFloat(rng)
					if prev := len(ms.Cands); prev > 0 {
						back[j] = rng.Intn(len(ms.Cands[prev-1]))
					} else {
						back[j] = rng.Intn(9) // the committed column's: never followed
					}
				}
				ms.Pts = append(ms.Pts, oddPoint(rng))
				ms.Cands, ms.Logp, ms.Back = append(ms.Cands, cands), append(ms.Logp, logp), append(ms.Back, back)
			}
			st.matcher = uncertain.NewOnlineMatcherFromState(e.cfg.Stream.Network, e.snapper, uncertain.MatchOptions{}, matchLag, ms)
		}
	}
	return ss
}

func smallCity() *roadnet.Graph {
	return roadnet.GridCity(roadnet.GridCityOptions{NX: 4, NY: 3, Spacing: 100, Seed: 1})
}

// TestSnapshotRoundTrip: for random session states, with and without a
// network, decode(encode(state)) is the state bit for bit, and a session
// restored from the record encodes to the same bytes again.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, e := range []*Engine{New(Config{}), New(Config{Stream: StreamConfig{Network: smallCity()}})} {
		for n := 0; n < 300; n++ {
			ss := randomSession(e, rng)
			payload := ss.appendSnapshotLocked(nil)
			got, err := decodeSnapshot(store.Record{Type: recSnapshot2, Payload: payload})
			if err != nil {
				t.Fatalf("state %d: %v", n, err)
			}
			if d := sameBits(reflect.ValueOf(snapshotOf(ss)), reflect.ValueOf(got), "walSnapshot"); d != "" {
				t.Fatalf("state %d does not survive a round trip: %s", n, d)
			}
			for i, r := range got.Results {
				if r.HasEdge != ss.results[i].HasEdge {
					t.Fatalf("state %d: result %d has an edge %v, had one %v", n, i, r.HasEdge, ss.results[i].HasEdge)
				}
			}
			if err := e.restoreSnapshot(got, time.Time{}, 1); err != nil {
				t.Fatalf("state %d does not restore: %v", n, err)
			}
			back, _ := e.session(ss.id)
			if again := back.appendSnapshotLocked(nil); !bytes.Equal(again, payload) {
				t.Fatalf("state %d: the restored session encodes to %d bytes, the original to %d", n, len(again), len(payload))
			}
			e.unlink(back)
		}
	}
	// nil and empty Results are one state: restoreSnapshot makes both nil.
	e := New(Config{})
	ss := e.newSession("st-000001", 5, 0, 2, time.Time{})
	ss.noteSource("a")
	nilRes := ss.appendSnapshotLocked(nil)
	ss.results = make([]Result, 0, 8)
	if !bytes.Equal(ss.appendSnapshotLocked(nil), nilRes) {
		t.Error("nil and empty Results encode differently")
	}
}

// TestSessionRecordsRoundTrip: the open, drain and close records carry
// their fields bit for bit and refuse a wrong flag, no lanes, a short
// payload and trailing bytes.
func TestSessionRecordsRoundTrip(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8000000000abc)
	p := appendOpen(nil, `st-"1"`, neg0, nan, 64)
	o, err := decodeOpen(store.Record{Type: recSessionOpen2, Payload: p})
	if err != nil || o.Session != `st-"1"` || math.Float64bits(o.Lateness) != math.Float64bits(neg0) ||
		math.Float64bits(o.MaxSpeed) != math.Float64bits(nan) || o.Lanes != 64 {
		t.Fatalf("open: %+v, %v", o, err)
	}
	for _, flag := range []bool{false, true} {
		d, err := decodeDrain(store.Record{Type: recDrain2, Payload: appendFlagRec(nil, "st-000002", flag)})
		if err != nil || d != (walDrain{Session: "st-000002", Flush: flag}) {
			t.Fatalf("drain %v: %+v, %v", flag, d, err)
		}
		c, err := decodeClose(store.Record{Type: recSessionClose2, Payload: appendFlagRec(nil, "", flag)})
		if err != nil || c != (walClose{Evicted: flag}) {
			t.Fatalf("close %v: %+v, %v", flag, c, err)
		}
	}
	bad := map[string][]byte{
		"flag 2":         append(appendHeader(nil, "st-1"), 2),
		"no flag":        appendHeader(nil, "st-1"),
		"trailing bytes": append(appendFlagRec(nil, "st-1", true), 0),
		"bad magic":      append([]byte("SQC\x01"), appendFlagRec(nil, "st-1", true)[4:]...),
		"id overruns":    appendFlagRec(nil, "st-1", true)[:7],
	}
	for name, p := range bad {
		if _, err := decodeDrain(store.Record{Type: recDrain2, Payload: p}); err == nil {
			t.Errorf("drain %s: decoded", name)
		}
	}
	if _, err := decodeOpen(store.Record{Type: recSessionOpen2, Payload: appendOpen(nil, "st-1", 1, 1, 0)}); err == nil {
		t.Error("an open record with no lanes decoded")
	}
}

// openOver writes recs into a fresh log and opens an engine over it.
func openOver(t *testing.T, cfg Config, recs ...store.Record) (*Engine, error) {
	t.Helper()
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := l.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Durability = DurabilityConfig{Dir: "wal", FS: fs}
	e, err := Open(cfg)
	if err == nil {
		t.Cleanup(func() { e.Close() })
	}
	return e, err
}

func gobPayload(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestOpenRecordRefusesLaneCount: an open record of either generation
// that claims a lane count outside [1, MaxLanes] is malformed, and
// recovery fails on it. The SQC reader used to refuse only 0, so an
// open record claiming 2^30 lanes decoded, and restore then made one
// lane apiece.
func TestOpenRecordRefusesLaneCount(t *testing.T) {
	for _, lanes := range []int{MaxLanes + 1, 1 << 30} {
		for _, rec := range []store.Record{
			{Type: recSessionOpen2, Payload: appendOpen(nil, "st-000001", 1, 20, lanes)},
			{Type: recSessionOpen, Payload: gobPayload(t, walOpen{Session: "st-000001", Lateness: 1, MaxSpeed: 20, Lanes: lanes})},
		} {
			if o, err := decodeOpen(rec); !errors.Is(err, errRecord) {
				t.Fatalf("type %d open record with %d lanes: %+v, %v", rec.Type, lanes, o, err)
			}
			if lanes == MaxLanes+1 {
				if _, err := openOver(t, Config{}, rec); !errors.Is(err, errRecord) {
					t.Errorf("recovery over a type %d open record with %d lanes: %v", rec.Type, lanes, err)
				}
			}
		}
	}
	if _, err := openOver(t, Config{}, store.Record{Type: recSessionOpen2, Payload: appendOpen(nil, "st-000001", 1, 20, MaxLanes)}); err != nil {
		t.Errorf("recovery over an open record with %d lanes: %v", MaxLanes, err)
	}
}

// TestSnapshotRecordRefusesLaneCount: the same for snapshot records of
// either generation.
func TestSnapshotRecordRefusesLaneCount(t *testing.T) {
	if _, err := decodeSnapshot2(emptySeed(MaxLanes)); err != nil {
		t.Fatalf("a snapshot with %d lanes: %v", MaxLanes, err)
	}
	for _, lanes := range []int{0, MaxLanes + 1, 1 << 30} {
		for _, rec := range []store.Record{
			{Type: recSnapshot2, Payload: emptySeed(uint32(lanes))},
			{Type: recSnapshot, Payload: gobPayload(t, walSnapshot{Session: "st-1", Lateness: 2, Lanes: lanes})},
		} {
			if s, err := decodeSnapshot(rec); !errors.Is(err, errRecord) {
				t.Fatalf("type %d snapshot with %d lanes: %s %d lanes, %v", rec.Type, lanes, s.Session, s.Lanes, err)
			}
			if lanes == MaxLanes+1 {
				if _, err := openOver(t, Config{}, rec); !errors.Is(err, errRecord) {
					t.Errorf("recovery over a type %d snapshot with %d lanes: %v", rec.Type, lanes, err)
				}
			}
		}
	}
}

// emptySeed is a snapshot of session "st-1" over the given number of
// lanes, with no sources, results or source states.
func emptySeed(lanes uint32) []byte {
	b := snapshotSeed(nil, func(b []byte) []byte {
		return le.AppendUint32(le.AppendUint32(le.AppendUint32(b, 0), 0), 0)
	})
	le.PutUint32(b[4+4+len("st-1")+16:], lanes)
	return b
}

// latticeSeed is a snapshot of session "st-1" whose one source, "veh-1",
// holds a matcher lattice of one column with one candidate, on edge.
func latticeSeed(edge uint64) []byte {
	return snapshotSeed([]string{"veh-1"}, func(b []byte) []byte {
		b = le.AppendUint32(le.AppendUint32(b, 0), 0) // no results, no edges
		b = le.AppendUint32(b, 1)
		return seedSource(b, func(b []byte) []byte {
			b = le.AppendUint32(b, 1)                              // one column
			b = le.AppendUint32(append(b, make([]byte, 24)...), 1) // at t=0, (0, 0), with one candidate
			b = le.AppendUint64(b, edge)
			return le.AppendUint64(append(b, make([]byte, 40)...), 0) // Param, X, Y, Dist, Logp; Back
		})
	})
}

// TestRestoreRefusesEdgeOutsideNetwork: the WAL does not record which
// network wrote it, so a data directory reopened over a smaller network
// can hold a lattice naming an edge the network does not have. Restore
// used to take it, and the session's first matched row panicked in the
// matcher; Open now fails, naming the session, the edge and the
// network's edge count.
func TestRestoreRefusesEdgeOutsideNetwork(t *testing.T) {
	cfg := Config{Stream: StreamConfig{Network: smallCity()}}
	edges := cfg.Stream.Network.NumEdges()
	rows := chunkOf([]row{ev("veh-1", 1, 50, 0), ev("veh-1", 2, 150, 0), ev("veh-1", 3, 250, 0)})
	e, err := openOver(t, cfg, store.Record{Type: recSnapshot2, Payload: latticeSeed(1 << 40)})
	if err == nil {
		e.Ingest("st-1", rows, 0, time.Time{})
		e.Drain("st-1", true, time.Time{})
		t.Fatalf("Open restored a lattice on edge 2^40 of a %d-edge network", edges)
	}
	for _, want := range []string{"st-1", "edge 1099511627776", fmt.Sprintf("%d edges", edges)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open's error %q does not say %q", err, want)
		}
	}
	e, err = openOver(t, cfg, store.Record{Type: recSnapshot2, Payload: latticeSeed(uint64(edges - 1))})
	if err != nil {
		t.Fatalf("a lattice on the network's last edge: %v", err)
	}
	if _, err := e.Ingest("st-1", rows, 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if res, _, err := e.Drain("st-1", true, time.Time{}); err != nil || len(res) != 4 {
		t.Fatalf("drained %d rows, %v; want the lattice's and the three ingested", len(res), err)
	}
}

// TestSnapshotEncodeReusesBuffers: appending a snapshot into a buffer
// that already holds one allocates nothing — the state is read in place.
func TestSnapshotEncodeReusesBuffers(t *testing.T) {
	e := New(Config{Stream: StreamConfig{Network: smallCity()}})
	ss := randomSession(e, rand.New(rand.NewSource(5)))
	buf := ss.appendSnapshotLocked(nil)
	allocs := testing.AllocsPerRun(50, func() { buf = ss.appendSnapshotLocked(buf[:0]) })
	if allocs != 0 && !israce.Enabled {
		t.Errorf("a snapshot encode allocates %v times with a warm buffer, want 0", allocs)
	}
}

// snapshotSeed is a hand-laid recSnapshot2 payload for FuzzDecodeSnapshot:
// a session "st-1" with dictionary dict, whose results and source states
// are the bytes tail renders.
func snapshotSeed(dict []string, tail func(b []byte) []byte) []byte {
	b := appendParams(appendHeader(nil, "st-1"), 2, 0, 1)
	b = append(b, make([]byte, 8+8+32)...) // ChunkIdx, ClientSeq, counters
	b = le.AppendUint32(b, uint32(len(dict)))
	for _, s := range dict {
		b = append(le.AppendUint32(b, uint32(len(s))), s...)
	}
	return tail(b)
}

// seedSource appends one source state for dictionary entry 0 with an
// empty reorder buffer; lattice renders what follows its flags and Last.
func seedSource(b []byte, lattice func(b []byte) []byte) []byte {
	b = le.AppendUint32(b, 0)
	b = append(b, make([]byte, 32)...) // reorderer
	b = le.AppendUint32(b, 0)          // nothing buffered
	if lattice == nil {
		return append(b, make([]byte, 1+24)...)
	}
	return lattice(append(append(b, 3), make([]byte, 24)...))
}

// seedColumn appends one lattice column of k candidates pointing back to
// candidate back.
func seedColumn(b []byte, k, back int) []byte {
	b = le.AppendUint32(append(b, make([]byte, 24)...), uint32(k))
	for j := 0; j < k; j++ {
		b = le.AppendUint64(append(b, make([]byte, 48)...), uint64(back))
	}
	return b
}

// FuzzDecodeSnapshot feeds arbitrary payloads to the snapshot decoder
// and on through restore. A record reaches it only after its CRC
// verified, but a decoder that trusts a count is one bad writer away
// from a multi-gigabyte allocation or an index panic during recovery.
// The rule is: an error, never a panic, and nothing sized past the
// input. Whatever it accepts, restore into an engine over smallCity()
// must refuse, or leave a session whose own snapshot is a fixed point
// (decoded and restored once more, it encodes to the same bytes) and
// that ingests and flush-drains a few rows of one of its sources.
// `go test` runs the seeds below; `make fuzz` explores further.
func FuzzDecodeSnapshot(f *testing.F) {
	e := New(Config{Stream: StreamConfig{Network: smallCity()}})
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 4; n++ {
		f.Add(randomSession(e, rng).appendSnapshotLocked(nil))
	}
	good := randomSession(e, rng).appendSnapshotLocked(nil)
	f.Add(append(append([]byte(nil), good...), 0)) // trailing bytes
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte(recMagic))
	noState := func(b []byte) []byte { return le.AppendUint32(b, 0) }
	// A truncated dictionary: three entries promised, one present.
	f.Add(snapshotSeed([]string{"a"}, func(b []byte) []byte {
		le.PutUint32(b[len(b)-4-4-1:], 3)
		return b
	}))
	// A result whose source index is past the dictionary.
	f.Add(snapshotSeed([]string{"a", "b"}, func(b []byte) []byte {
		b = append(le.AppendUint32(b, 1), 2)
		b = append(b, make([]byte, 24)...)
		return noState(le.AppendUint32(b, 0))
	}))
	// Every flavor of edge column: all rows, some rows, a flag count that
	// lies, a flag byte that is not a flag.
	for _, flags := range [][]byte{nil, {1, 0}, {1, 1}, {2, 0}} {
		f.Add(snapshotSeed([]string{"a"}, func(b []byte) []byte {
			b = append(le.AppendUint32(b, 2), 0, 0)
			b = append(b, make([]byte, 48)...)
			if flags == nil {
				b = le.AppendUint32(b, 2)
				b = append(b, make([]byte, 16)...)
			} else {
				b = append(le.AppendUint32(b, 1), flags...)
				b = append(b, make([]byte, 8)...)
			}
			return noState(b)
		}))
	}
	// A lattice of two columns whose count says three, one whose back
	// pointer names no candidate of the column before, and one sound one.
	for _, lat := range []struct{ count, back int }{{3, 0}, {2, 1}, {2, 0}} {
		f.Add(snapshotSeed([]string{"a"}, func(b []byte) []byte {
			b = le.AppendUint32(le.AppendUint32(b, 0), 0) // no results, no edges
			b = le.AppendUint32(b, 1)
			return seedSource(b, func(b []byte) []byte {
				b = le.AppendUint32(b, uint32(lat.count))
				return seedColumn(seedColumn(b, 1, 0), 2, lat.back)
			})
		}))
	}
	// A dictionary and a source-state count of 4G each.
	f.Add(snapshotSeed(nil, func(b []byte) []byte {
		le.PutUint32(b[len(b)-4:], math.MaxUint32)
		return b
	}))
	f.Add(snapshotSeed(nil, func(b []byte) []byte {
		return le.AppendUint32(le.AppendUint32(le.AppendUint32(b, 0), 0), math.MaxUint32)
	}))
	// 2^30 lanes, which restore once sized lane state by, and a lattice on
	// an edge past the network's, which once panicked the first ingest.
	f.Add(emptySeed(1 << 30))
	f.Add(latticeSeed(1 << 40))
	f.Add(latticeSeed(3))

	f.Fuzz(func(t *testing.T, p []byte) {
		s, err := decodeSnapshot2(p)
		if err != nil {
			return
		}
		size := 4*len(s.SrcIDs) + 25*len(s.Results) + minSourceBytes*len(s.Sources)
		for _, ws := range s.Sources {
			size += bufferedEventSize * len(ws.Re.Buf)
			if ws.Matcher != nil {
				for _, c := range ws.Matcher.Cands {
					size += 28 + candidateBytes*len(c)
				}
			}
		}
		if size > len(p) {
			t.Fatalf("%d bytes of state out of a %d-byte payload", size, len(p))
		}
		once := restoreAndEncode(t, e, s)
		if once == nil {
			return // restore refused it
		}
		s2, err := decodeSnapshot2(once)
		if err != nil {
			t.Fatalf("a restored session's snapshot does not decode: %v", err)
		}
		if twice := restoreAndEncode(t, e, s2); !bytes.Equal(once, twice) {
			t.Fatalf("a restored session's snapshot is not a fixed point: %d then %d bytes", len(once), len(twice))
		}
		if err := e.restoreSnapshot(s, time.Time{}, 1); err != nil {
			t.Fatalf("restored once, refused the second time: %v", err)
		}
		ss, _ := e.session(s.Session)
		defer e.unlink(ss)
		src, t0 := "veh-new", 0.0
		if len(s.Sources) > 0 {
			src = s.Sources[0].Src
			if last := s.Sources[0].Last.T; !math.IsNaN(last) && !math.IsInf(last, 0) {
				t0 = last
			}
		}
		e.Ingest(s.Session, chunkOf([]row{ev(src, t0+1, 50, 0), ev(src, t0+2, 150, 0), ev(src, t0+3, 250, 100)}), 0, time.Time{})
		e.Drain(s.Session, true, time.Time{})
	})
}

// restoreAndEncode restores s into e and returns the restored session's
// snapshot record, then removes the session again; nil when restore
// refuses s.
func restoreAndEncode(t *testing.T, e *Engine, s walSnapshot) []byte {
	t.Helper()
	if e.restoreSnapshot(s, time.Time{}, 1) != nil {
		return nil
	}
	ss, err := e.session(s.Session)
	if err != nil {
		t.Fatal(err)
	}
	defer e.unlink(ss)
	return ss.appendSnapshotLocked(nil)
}
