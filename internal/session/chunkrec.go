package session

// The chunk record: one accepted ingest chunk as the WAL holds it.
//
// recChunk2 (type 6) is the only chunk format written. It is columnar
// and fixed-width, so the history path filters T/X/Y in place on the
// payload bytes and replay rebuilds events without a per-row
// allocation. All integers and float bit patterns are little-endian:
//
//	 4  magic "SQC" + version byte 2
//	 8  ChunkIdx   u64   1-based per-session apply index
//	 8  ClientSeq  u64   client-supplied ?seq= (0 = none)
//	 4  s          u32   session id length
//	 s  session id
//	    rows       the block below
//
// The rows block is the one the snapshot record carries its results
// in, and recReader.rows reads it for both:
//
//	 4  d          u32   source dictionary entries, in first-appearance order
//	    d × { u32 length, bytes }
//	 4  n          u32   rows
//	nw  source     per-row dictionary index, w = 1 byte for d <= 256,
//	               otherwise 4
//	8n  T          float64 bits per row
//	8n  X
//	8n  Y
//
// Rows keep the order the events arrived in — replay is a pure fold
// over them — and floats round-trip bit for bit. The chunk's payload
// ends with the Y column; trailing bytes are an error.
//
// recChunk (type 2, a gob walChunk) was the format before; it is never
// written, and decodeLegacyChunk (legacy.go) keeps it readable so an
// existing data directory opens unchanged.

import (
	"math"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/store"
	"sidq/internal/trajectory"
)

// recMagic opens every record payload this package writes: "SQC" and
// version 2 (gob, which needed no magic, was the first).
const recMagic = "SQC\x02"

// sourceIndexWidth is the byte width of one source-index cell for a
// dictionary of d entries.
func sourceIndexWidth(d int) int {
	if d <= 1<<8 {
		return 1
	}
	return 4
}

// recEncoder holds the buffers one record encode needs, so the ack path
// allocates nothing once the pool is warm: the payload buffer every
// record type is rendered into, and the chunk record's per-chunk source
// dictionary.
type recEncoder struct {
	buf  []byte
	dict map[string]uint32
	srcs []string
	idx  []uint32
}

var recEncoders = sync.Pool{New: func() any { return &recEncoder{dict: map[string]uint32{}} }}

func getRecEncoder() *recEncoder { return recEncoders.Get().(*recEncoder) }

// release returns the encoder to the pool, unless one oversized record
// grew it past what is worth keeping.
func (enc *recEncoder) release() {
	if cap(enc.buf) <= maxPooledBuf {
		recEncoders.Put(enc)
	}
}

// chunk renders the chunk as a recChunk2 payload. The result aliases
// the encoder's buffer: it is valid until the next render or release.
func (enc *recEncoder) chunk(session string, chunkIdx, clientSeq uint64, events []Event) []byte {
	clear(enc.dict)
	enc.srcs = enc.srcs[:0]
	enc.idx = enc.idx[:0]
	for i := range events {
		src := events[i].Value.Src
		k, ok := enc.dict[src]
		if !ok {
			k = uint32(len(enc.srcs))
			enc.dict[src] = k
			enc.srcs = append(enc.srcs, src)
		}
		enc.idx = append(enc.idx, k)
	}
	b := append(enc.buf[:0], recMagic...)
	b = le.AppendUint64(b, chunkIdx)
	b = le.AppendUint64(b, clientSeq)
	b = le.AppendUint32(b, uint32(len(session)))
	b = append(b, session...)
	b = le.AppendUint32(b, uint32(len(enc.srcs)))
	for _, src := range enc.srcs {
		b = le.AppendUint32(b, uint32(len(src)))
		b = append(b, src...)
	}
	b = le.AppendUint32(b, uint32(len(events)))
	if sourceIndexWidth(len(enc.srcs)) == 1 {
		for _, k := range enc.idx {
			b = append(b, byte(k))
		}
	} else {
		for _, k := range enc.idx {
			b = le.AppendUint32(b, k)
		}
	}
	for i := range events {
		b = le.AppendUint64(b, math.Float64bits(events[i].Value.Pt.T))
	}
	for i := range events {
		b = le.AppendUint64(b, math.Float64bits(events[i].Value.Pt.Pos.X))
	}
	for i := range events {
		b = le.AppendUint64(b, math.Float64bits(events[i].Value.Pt.Pos.Y))
	}
	enc.buf = b
	return b
}

// chunkCols is a recChunk2 payload parsed in place: every slice
// aliases the payload, so it lives exactly as long as the payload does.
type chunkCols struct {
	session             []byte
	chunkIdx, clientSeq uint64
	rowCols
}

// parseChunk2 validates a recChunk2 payload and returns its columns.
// srcs is scratch for the source dictionary, reused when it holds it;
// a caller that parses one record passes nil.
func parseChunk2(p []byte, srcs [][]byte) (chunkCols, error) {
	r := recReader{p: p}
	var c chunkCols
	r.magic()
	c.chunkIdx, c.clientSeq = r.u64(), r.u64()
	c.session = r.bytes()
	c.rowCols = r.rows(srcs)
	if err := r.end(); err != nil {
		return chunkCols{}, err
	}
	return c, nil
}

// rowCols is the block the chunk and the snapshot record share, read in
// place: the source dictionary, then n rows as a source-index column
// and the T, X and Y columns.
type rowCols struct {
	srcs         [][]byte // the source dictionary
	n            int      // rows
	idxW         int      // bytes per source-index cell
	idx, t, x, y []byte   // the columns
}

// rows reads a rowCols block, its dictionary into srcs when srcs holds
// it. Every count is checked against the bytes that remain before
// anything is sized by it, and every source index against the
// dictionary, so the accessors below cannot go out of range on any
// input.
func (r *recReader) rows(srcs [][]byte) rowCols {
	var c rowCols
	if d := r.count(4, "dictionary entries"); d > 0 { // every entry takes at least its length prefix
		c.srcs = append(srcs[:0], make([][]byte, d)...)
	}
	for k := range c.srcs {
		c.srcs[k] = r.bytes()
	}
	c.idxW = sourceIndexWidth(len(c.srcs))
	c.n = r.count(c.idxW+24, "rows")
	c.idx, c.t, c.x, c.y = r.take(c.n*c.idxW), r.take(8*c.n), r.take(8*c.n), r.take(8*c.n)
	if r.err != nil {
		return rowCols{}
	}
	for i := 0; i < c.n; i++ {
		if k := c.src(i); k >= len(c.srcs) {
			r.fail("row %d names source %d of %d", i, k, len(c.srcs))
			return rowCols{}
		}
	}
	return c
}

// src is row i's index into the source dictionary.
func (c *rowCols) src(i int) int {
	if c.idxW == 1 {
		return int(c.idx[i])
	}
	return int(le.Uint32(c.idx[4*i:]))
}

func colFloat(col []byte, i int) float64 {
	return math.Float64frombits(le.Uint64(col[8*i:]))
}

// names copies the source dictionary out as strings.
func (c *rowCols) names() []string {
	srcs := make([]string, len(c.srcs))
	for k, b := range c.srcs {
		srcs[k] = string(b)
	}
	return srcs
}

// events rebuilds the rows as events in their original order. Rows of
// one source share one string.
func (c *rowCols) events() []Event {
	srcs := c.names()
	out := make([]Event, c.n)
	for i := range out {
		t := colFloat(c.t, i)
		out[i] = Event{
			Time:  t,
			Value: Sample{Src: srcs[c.src(i)], Pt: trajectory.Point{T: t, Pos: geo.Pt(colFloat(c.x, i), colFloat(c.y, i))}},
		}
	}
	return out
}

// chunkRecord is a decoded chunk record of either type, as replay
// folds it.
type chunkRecord struct {
	session   string
	chunkIdx  uint64
	clientSeq uint64
	events    []Event
}

// decodeChunk decodes a chunk record of either type.
func decodeChunk(rec store.Record) (chunkRecord, error) {
	if rec.Type == recChunk {
		return decodeLegacyChunk(rec.Payload)
	}
	c, err := parseChunk2(rec.Payload, nil)
	if err != nil {
		return chunkRecord{}, err
	}
	return chunkRecord{session: string(c.session), chunkIdx: c.chunkIdx, clientSeq: c.clientSeq, events: c.events()}, nil
}
