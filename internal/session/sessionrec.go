package session

// The session records: every WAL record but the chunk (chunkrec.go).
//
// Each is appended straight from the live session into a pooled buffer
// — no intermediate copy of the state, no type descriptors — and
// decoded with every count checked against the bytes that remain
// before anything is sized by it. Integers and float bit patterns are
// little-endian, and floats round-trip bit for bit, -0 and NaN payloads
// included. Every payload opens with the chunk record's magic and the
// session id, and trailing bytes are an error:
//
//	 4  magic "SQC" + version byte 2
//	 4  s          u32   session id length
//	 s  session id
//
// recSessionOpen2 (type 7) then holds the session's parameters:
//
//	 8  Lateness   float64
//	 8  MaxSpeed   float64
//	 4  Lanes      u32   1 to MaxLanes
//
// recDrain2 (type 8) and recSessionClose2 (type 9) one flag:
//
//	 1  Flush (drain) / Evicted (close)   0 or 1
//
// recSnapshot2 (type 10) the session's complete processing state:
//
//	20  Lateness, MaxSpeed, Lanes          as in the open record
//	 8  ChunkIdx   u64
//	 8  ClientSeq  u64
//	32  Ingested, Emitted, Late, Outliers  u64 each
//	    rows       SrcIDs, then the undrained results in emission
//	               order: the chunk record's rows block
//	 4  k          u32   results with an edge
//	 r  has-edge   one byte (0 or 1) per result, only when 0 < k < r
//	8k  Edge       i64 per result that has one, in result order
//	 4  m          u32   source states, in first-appearance order:
//	    m × {
//	     4  source     u32   index into SrcIDs
//	    32  Lateness, Watermark float64; Late, Emitted u64 — the reorderer
//	     4  b          u32   buffered events: b × { Time, T, X, Y }
//	     1  flags      bit 0 HasLast, bit 1 a matcher lattice follows
//	    24  Last       T, X, Y
//	        lattice:   u32 columns c, c × { T, X, Y, u32 candidates k >= 1,
//	                   k × { Edge i64, Param, X, Y, Dist, Logp, Back i64 } }
//	    }
//
// The has-edge column keeps a result without an edge apart from one on
// edge 0, and a lattice's
// back-pointers are checked against the column before them, so a
// decoded lattice can be run. Types 1, 3, 4 and 5 are the gob records
// these replaced (legacy.go): read, never written.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// errRecord marks a malformed record payload, of any type.
var errRecord = errors.New("malformed record")

// Decoded records, of either generation. The field names are the ones
// the legacy gob records were encoded with.
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
	Results   []Result // Src indexes SrcIDs
	Ingested  int
	Emitted   int
	Late      int
	Outliers  int
	Sources   []walSource
}

var le = binary.LittleEndian

func appendF64(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

func appendPoint(b []byte, p trajectory.Point) []byte {
	return appendF64(appendF64(appendF64(b, p.T), p.Pos.X), p.Pos.Y)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendHeader starts a record: the magic and the session id.
func appendHeader(b []byte, session string) []byte {
	b = le.AppendUint32(append(b, recMagic...), uint32(len(session)))
	return append(b, session...)
}

func appendParams(b []byte, lateness, maxSpeed float64, lanes int) []byte {
	return le.AppendUint32(appendF64(appendF64(b, lateness), maxSpeed), uint32(lanes))
}

// appendOpen renders a recSessionOpen2 payload.
func appendOpen(b []byte, session string, lateness, maxSpeed float64, lanes int) []byte {
	return appendParams(appendHeader(b, session), lateness, maxSpeed, lanes)
}

// appendFlagRec renders a recDrain2 or recSessionClose2 payload.
func appendFlagRec(b []byte, session string, flag bool) []byte {
	return appendBool(appendHeader(b, session), flag)
}

// appendSnapshotLocked renders the session's complete state as a
// recSnapshot2 payload, reading it in place. Caller holds ss.mu.
func (ss *streamSession) appendSnapshotLocked(b []byte) []byte {
	b = appendParams(appendHeader(b, ss.id), ss.lateness, ss.maxSpeed, ss.lanes)
	b = le.AppendUint64(b, ss.chunkIdx)
	b = le.AppendUint64(b, ss.clientSeq)
	for _, n := range [4]int{ss.ingested, ss.emitted, ss.late, ss.outliers} {
		b = le.AppendUint64(b, uint64(n))
	}
	b = le.AppendUint32(b, uint32(len(ss.srcIDs)))
	for _, src := range ss.srcIDs {
		b = append(le.AppendUint32(b, uint32(len(src))), src...)
	}
	b = ss.appendResultsLocked(b)
	// Sources in first-appearance order keeps snapshot bytes stable for
	// identical histories. Their count is patched in once known.
	at, m := len(b), 0
	b = append(b, 0, 0, 0, 0)
	for k, st := range ss.sources {
		if st == nil {
			continue
		}
		m++
		b = appendSource(le.AppendUint32(b, uint32(k)), st)
	}
	le.PutUint32(b[at:], uint32(m))
	return b
}

// appendResultsLocked renders ss.results as columns; a result's rank
// is its index into the dictionary, ss.srcIDs. Caller holds ss.mu.
func (ss *streamSession) appendResultsLocked(b []byte) []byte {
	res := ss.results
	b = le.AppendUint32(b, uint32(len(res)))
	wide := sourceIndexWidth(len(ss.srcIDs)) == 4
	k := 0
	for i := range res {
		if wide {
			b = le.AppendUint32(b, res[i].Src)
		} else {
			b = append(b, byte(res[i].Src))
		}
	}
	for i := range res {
		b = appendF64(b, res[i].T)
	}
	for i := range res {
		b = appendF64(b, res[i].X)
	}
	for i := range res {
		b = appendF64(b, res[i].Y)
		if res[i].HasEdge {
			k++
		}
	}
	b = le.AppendUint32(b, uint32(k))
	if 0 < k && k < len(res) {
		for i := range res {
			b = appendBool(b, res[i].HasEdge)
		}
	}
	for i := range res {
		if res[i].HasEdge {
			b = le.AppendUint64(b, uint64(res[i].Edge))
		}
	}
	return b
}

// appendSource renders one source's reorderer, speed-gate anchor and
// matcher lattice, read in place.
func appendSource(b []byte, st *sourceState) []byte {
	re := st.re.State()
	b = appendF64(appendF64(b, re.Lateness), re.Watermark)
	b = le.AppendUint64(le.AppendUint64(b, uint64(re.Late)), uint64(re.Emitted))
	b = le.AppendUint32(b, uint32(len(re.Buf)))
	for _, e := range re.Buf {
		b = appendPoint(appendF64(b, e.Time), e.Value)
	}
	var flags byte
	if st.hasLast {
		flags |= 1
	}
	if st.matcher != nil {
		flags |= 2
	}
	b = appendPoint(append(b, flags), st.last)
	if st.matcher == nil {
		return b
	}
	m := st.matcher.State()
	b = le.AppendUint32(b, uint32(len(m.Pts)))
	for i, p := range m.Pts {
		b = le.AppendUint32(appendPoint(b, p), uint32(len(m.Cands[i])))
		for j, c := range m.Cands[i] {
			b = le.AppendUint64(b, uint64(c.Edge))
			b = appendF64(appendF64(appendF64(appendF64(b, c.Param), c.Pos.X), c.Pos.Y), c.Dist)
			b = le.AppendUint64(appendF64(b, m.Logp[i][j]), uint64(m.Back[i][j]))
		}
	}
	return b
}

// recReader cuts fields off the front of a payload. The first read
// past the end records an error, and every read after it returns zero
// values, so a decoder checks r.err where a zero would mislead it.
type recReader struct {
	p   []byte
	err error
}

func (r *recReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errRecord}, args...)...)
	}
}

// take returns the next n bytes, or nil once the payload is short.
func (r *recReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.p) {
		r.fail("%d bytes wanted, %d left", n, len(r.p))
		return nil
	}
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

func (r *recReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *recReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *recReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *recReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *recReader) point() trajectory.Point {
	t, x, y := r.f64(), r.f64(), r.f64()
	return trajectory.Point{T: t, Pos: geo.Pt(x, y)}
}

// bytes reads a u32-length-prefixed field in place.
func (r *recReader) bytes() []byte { return r.take(int(r.u32())) }

func (r *recReader) flag() bool {
	switch v := r.u8(); v {
	case 0, 1:
		return v == 1
	default:
		r.fail("flag byte %d", v)
		return false
	}
}

// count reads a u32 count of items that take at least size bytes each,
// and refuses one the remaining bytes cannot hold.
func (r *recReader) count(size int, what string) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(size) > uint64(len(r.p)) {
		r.fail("%d %s overrun the %d bytes left", n, what, len(r.p))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *recReader) magic() {
	if m := r.take(len(recMagic)); m != nil && string(m) != recMagic {
		r.fail("bad magic %q", m)
	}
}

// header reads the magic and the session id.
func (r *recReader) header() string {
	r.magic()
	return string(r.bytes())
}

func (r *recReader) params() (lateness, maxSpeed float64, lanes int) {
	lateness, maxSpeed, lanes = r.f64(), r.f64(), int(r.u32())
	if err := checkLanes(lanes); r.err == nil && err != nil {
		r.fail("%v", err)
	}
	return lateness, maxSpeed, lanes
}

// end is the decode's verdict: the first error, or trailing bytes.
func (r *recReader) end() error {
	if r.err == nil && len(r.p) > 0 {
		r.fail("%d trailing bytes", len(r.p))
	}
	return r.err
}

// decodeOpen decodes a session-open record of either generation.
func decodeOpen(rec store.Record) (walOpen, error) {
	var o walOpen
	if rec.Type == recSessionOpen {
		return o, decodeLegacy(rec.Payload, &o, &o.Lanes)
	}
	r := recReader{p: rec.Payload}
	o.Session = r.header()
	o.Lateness, o.MaxSpeed, o.Lanes = r.params()
	return o, r.end()
}

// decodeFlagRec decodes the payload of a recDrain2 or recSessionClose2.
func decodeFlagRec(p []byte) (session string, flag bool, err error) {
	r := recReader{p: p}
	session = r.header()
	flag = r.flag()
	return session, flag, r.end()
}

// decodeDrain decodes a drain record of either generation.
func decodeDrain(rec store.Record) (walDrain, error) {
	var d walDrain
	if rec.Type == recDrain {
		return d, decodeGob(rec.Payload, &d)
	}
	var err error
	d.Session, d.Flush, err = decodeFlagRec(rec.Payload)
	return d, err
}

// decodeClose decodes a session-close record of either generation.
func decodeClose(rec store.Record) (walClose, error) {
	var c walClose
	if rec.Type == recSessionClose {
		return c, decodeGob(rec.Payload, &c)
	}
	var err error
	c.Session, c.Evicted, err = decodeFlagRec(rec.Payload)
	return c, err
}

// decodeSnapshot decodes a snapshot record of either generation.
func decodeSnapshot(rec store.Record) (walSnapshot, error) {
	if rec.Type == recSnapshot {
		return decodeLegacySnapshot(rec.Payload)
	}
	return decodeSnapshot2(rec.Payload)
}

// Smallest encodings, which bound the counts a payload can claim.
const (
	minSourceBytes    = 4 + 32 + 4 + 1 + 24 // an empty buffer and no lattice
	minColumnBytes    = 24 + 4 + candidateBytes
	candidateBytes    = 7 * 8
	bufferedEventSize = 32
)

// decodeSnapshot2 decodes a recSnapshot2 payload.
func decodeSnapshot2(p []byte) (walSnapshot, error) {
	r := &recReader{p: p}
	var s walSnapshot
	s.Session = r.header()
	s.Lateness, s.MaxSpeed, s.Lanes = r.params()
	s.ChunkIdx, s.ClientSeq = r.u64(), r.u64()
	s.Ingested, s.Emitted, s.Late, s.Outliers = int(r.u64()), int(r.u64()), int(r.u64()), int(r.u64())
	rows := r.rows(nil)
	s.SrcIDs = rows.names()
	s.Results = decodeResults(r, &rows)
	m := r.count(minSourceBytes, "source states")
	if m > 0 {
		s.Sources = make([]walSource, m)
	}
	for i := range s.Sources {
		s.Sources[i] = decodeSource(r, s.SrcIDs)
	}
	return s, r.end()
}

// decodeResults builds the results from the rows block, each naming
// its source by dictionary index, and reads the edge block that follows
// it.
func decodeResults(r *recReader, rows *rowCols) []Result {
	n := rows.n
	res := make([]Result, n)
	for i := range res {
		res[i] = Result{Src: uint32(rows.src(i)), T: colFloat(rows.t, i), X: colFloat(rows.x, i), Y: colFloat(rows.y, i)}
	}
	k := int(r.u32())
	if r.err == nil && k > n {
		r.fail("%d edges for %d results", k, n)
	}
	if r.err != nil || k == 0 {
		return res
	}
	var has []byte // nil: every result has an edge
	if k < n {
		has = r.take(n)
		ones := 0
		for _, h := range has {
			if h > 1 {
				r.fail("has-edge byte %d", h)
			}
			ones += int(h)
		}
		if ones != k {
			r.fail("%d has-edge flags for %d edges", ones, k)
		}
	}
	for i := range res {
		if has == nil || has[i] == 1 {
			res[i].Edge, res[i].HasEdge = int(int64(r.u64())), true
		}
	}
	if r.err != nil {
		return nil
	}
	return res
}

// decodeSource reads one source state; its id is resolved against srcs.
func decodeSource(r *recReader, srcs []string) walSource {
	var ws walSource
	if k := int(r.u32()); r.err == nil && k >= len(srcs) {
		r.fail("a source state names source %d of %d", k, len(srcs))
	} else if r.err == nil {
		ws.Src = srcs[k]
	}
	ws.Re.Lateness, ws.Re.Watermark = r.f64(), r.f64()
	ws.Re.Late, ws.Re.Emitted = int(r.u64()), int(r.u64())
	if b := r.count(bufferedEventSize, "buffered events"); b > 0 {
		ws.Re.Buf = make([]stream.Event[trajectory.Point], b)
	}
	for j := range ws.Re.Buf {
		ws.Re.Buf[j].Time = r.f64()
		ws.Re.Buf[j].Value = r.point()
	}
	flags := r.u8()
	if flags > 3 {
		r.fail("source flags %#x", flags)
	}
	ws.HasLast = flags&1 != 0
	ws.Last = r.point()
	if flags&2 != 0 && r.err == nil {
		ms := decodeLattice(r)
		ws.Matcher = &ms
	}
	return ws
}

// decodeLattice reads one matcher lattice. Every column has a candidate,
// and every back-pointer past the first column names a candidate of the
// column before it, so the matcher rebuilt from it cannot index out of
// range.
func decodeLattice(r *recReader) uncertain.MatcherState {
	var ms uncertain.MatcherState
	c := r.count(minColumnBytes, "lattice columns")
	if c == 0 {
		return ms
	}
	ms.Pts = make([]trajectory.Point, c)
	ms.Cands, ms.Logp, ms.Back = make([][]roadnet.Snap, c), make([][]float64, c), make([][]int, c)
	for i := range ms.Pts {
		ms.Pts[i] = r.point()
		k := r.count(candidateBytes, "candidates")
		if r.err == nil && k == 0 {
			r.fail("lattice column %d has no candidates", i)
		}
		if r.err != nil {
			return ms
		}
		cands, logp, back := make([]roadnet.Snap, k), make([]float64, k), make([]int, k)
		for j := range cands {
			c := &cands[j]
			c.Edge = roadnet.EdgeID(int64(r.u64()))
			c.Param = r.f64()
			c.Pos.X, c.Pos.Y = r.f64(), r.f64()
			c.Dist = r.f64()
			logp[j] = r.f64()
			back[j] = int(int64(r.u64()))
			if i > 0 && (back[j] < 0 || back[j] >= len(ms.Cands[i-1])) {
				r.fail("lattice column %d candidate %d points back to %d of %d", i, j, back[j], len(ms.Cands[i-1]))
				return ms
			}
		}
		ms.Cands[i], ms.Logp[i], ms.Back[i] = cands, logp, back
	}
	return ms
}
