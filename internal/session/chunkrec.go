package session

// The chunk: one ingest chunk as the engine takes it (Chunk) and as the
// WAL holds it (the chunk record), both naming a row's source by its
// index into the chunk's dictionary of source ids.
//
// recChunk2 (type 6) is the only chunk format written. It is columnar
// and fixed-width, so the history path filters T/X/Y in place on the
// payload bytes. Its rows block is a Chunk's fields in order: the
// encoder writes the dictionary and index it is handed, and replay
// parses a record back into a Chunk. Integers and float bits are
// little-endian:
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
// Rows keep the order the chunk arrived in — replay is a pure fold
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

// chunkIDTable is how many distinct source ids Chunk.Add finds by a
// linear scan, last bytes first, before it moves them into a map. The
// scan is level with a map near 8 ids and 1.1 (numbered ids) to 1.4
// (ids sharing their last byte) times as slow at 16 (EXPERIMENTS.md).
const chunkIDTable = 16

// Chunk is one ingest chunk as the engine takes it: the in-memory twin
// of a chunk record's rows block, built by Add and emptied by Reset. It
// does not copy the ids it is given, which may be views of the bytes
// they were parsed from; those must stay unchanged while it is in use.
// The engine keeps no reference to a chunk or its ids.
type Chunk struct {
	srcs []string           // the source ids, in first-appearance order
	idx  []uint32           // each row's index into srcs
	pts  []trajectory.Point // each row's point; its T is the event time
	more map[string]uint32  // srcs by id, once there are more than chunkIDTable
}

// Add appends one row of source src.
func (c *Chunk) Add(src string, pt trajectory.Point) {
	c.idx = append(c.idx, c.index(src))
	c.pts = append(c.pts, pt)
}

// Len is the number of rows.
func (c *Chunk) Len() int { return len(c.pts) }

// index returns src's dictionary index, adding it on first sight. The
// id past chunkIDTable moves the dictionary into c.more, which alone is
// searched from then on: one map lookup a row, as a map alone costs.
func (c *Chunk) index(src string) uint32 {
	if len(c.more) == 0 {
		n := len(src)
		for k, s := range c.srcs {
			if len(s) == n && (n == 0 || s[n-1] == src[n-1]) && s == src {
				return uint32(k)
			}
		}
	} else if k, ok := c.more[src]; ok {
		return k
	}
	k := uint32(len(c.srcs))
	c.srcs = append(c.srcs, src)
	if len(c.more) > 0 {
		c.more[src] = k
	} else if len(c.srcs) > chunkIDTable {
		if c.more == nil {
			c.more = make(map[string]uint32)
		}
		for j, s := range c.srcs {
			c.more[s] = uint32(j)
		}
	}
	return k
}

// Reset empties the chunk, keeping its memory, map included, unless it
// grew past maxSlab rows. What it keeps holds no id.
func (c *Chunk) Reset() {
	if cap(c.pts) > maxSlab {
		*c = Chunk{}
		return
	}
	clear(c.srcs)
	clear(c.more)
	c.srcs, c.idx, c.pts = c.srcs[:0], c.idx[:0], c.pts[:0]
}

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

// recEncoder holds the payload buffer every record type is rendered
// into, so the ack path allocates nothing once the pool is warm.
type recEncoder struct{ buf []byte }

var recEncoders = sync.Pool{New: func() any { return new(recEncoder) }}

func getRecEncoder() *recEncoder { return recEncoders.Get().(*recEncoder) }

// release returns the encoder to the pool, unless one oversized record
// grew it past what is worth keeping.
func (enc *recEncoder) release() {
	if cap(enc.buf) <= maxPooledBuf {
		recEncoders.Put(enc)
	}
}

// chunk renders c as a recChunk2 payload. The result aliases the
// encoder's buffer: it is valid until the next render or release.
func (enc *recEncoder) chunk(session string, chunkIdx, clientSeq uint64, c *Chunk) []byte {
	b := append(enc.buf[:0], recMagic...)
	b = le.AppendUint64(b, chunkIdx)
	b = le.AppendUint64(b, clientSeq)
	b = append(le.AppendUint32(b, uint32(len(session))), session...)
	b = le.AppendUint32(b, uint32(len(c.srcs)))
	for _, src := range c.srcs {
		b = append(le.AppendUint32(b, uint32(len(src))), src...)
	}
	b = le.AppendUint32(b, uint32(len(c.pts)))
	if sourceIndexWidth(len(c.srcs)) == 1 {
		for _, k := range c.idx {
			b = append(b, byte(k))
		}
	} else {
		for _, k := range c.idx {
			b = le.AppendUint32(b, k)
		}
	}
	for i := range c.pts {
		b = appendF64(b, c.pts[i].T)
	}
	for i := range c.pts {
		b = appendF64(b, c.pts[i].Pos.X)
	}
	for i := range c.pts {
		b = appendF64(b, c.pts[i].Pos.Y)
	}
	enc.buf = b
	return b
}

// chunkCols is a recChunk2 payload parsed in place: every slice
// aliases the payload, so it lives exactly as long as the payload does.
// A legacy chunk decodes to its envelope alone.
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

// into makes ch the chunk the rows are, dictionary and index as they
// stand.
func (c *rowCols) into(ch *Chunk) {
	ch.Reset()
	ch.srcs = append(ch.srcs, c.names()...)
	for i := 0; i < c.n; i++ {
		ch.idx = append(ch.idx, uint32(c.src(i)))
		ch.pts = append(ch.pts, trajectory.Point{T: colFloat(c.t, i), Pos: geo.Pt(colFloat(c.x, i), colFloat(c.y, i))})
	}
}

// decodeChunk decodes a chunk record of either type: its rows into
// rows, and its envelope.
func decodeChunk(rec store.Record, rows *Chunk) (chunkCols, error) {
	if rec.Type == recChunk {
		return decodeLegacyChunk(rec.Payload, rows)
	}
	c, err := parseChunk2(rec.Payload, nil)
	if err == nil {
		c.into(rows)
	}
	return c, err
}
