package server

// The row writer: the one encoder of result rows, shared by the session
// drain, the history range query and /v1/clean. It appends rows to the
// request scratch's byte buffer. An ndjson row is exactly the bytes
// json.Encoder produces for the test's wire struct (wireRow: source, t,
// x, y, and edge when set) — same field order, same float formatting,
// same string escaping — without reflection; a CSV row is trajectory's
// wire codec.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"sidq/internal/trajectory"
)

// rowBuf accumulates result rows, ndjson or CSV.
type rowBuf struct {
	buf   []byte
	id    []byte            // the current source's CSV id field
	names map[string][]byte // source id -> its JSON string literal
	wrote int               // bytes handed to the writer so far
}

// reset empties the buffer, keeping a slab unless a long id grew it
// past a slab and a row.
func (rb *rowBuf) reset() {
	if cap(rb.buf) > 2*trajectory.RowFlushBytes {
		rb.buf = nil
	}
	rb.buf, rb.id, rb.wrote = rb.buf[:0], rb.id[:0], 0
	clear(rb.names)
}

// sourceJSON returns src as a JSON string literal, escaped the way
// encoding/json escapes it (HTML-safe, U+2028/9, invalid UTF-8 to
// U+FFFD). One Marshal per distinct source per response.
func (rb *rowBuf) sourceJSON(src string) []byte {
	if j, ok := rb.names[src]; ok {
		return j
	}
	if rb.names == nil {
		rb.names = map[string][]byte{}
	}
	j, _ := json.Marshal(src) // a string cannot fail to marshal
	rb.names[src] = j
	return j
}

// sourceJSONBytes is sourceJSON for a source id still in payload bytes;
// a hit costs no allocation.
func (rb *rowBuf) sourceJSONBytes(src []byte) []byte {
	if j, ok := rb.names[string(src)]; ok {
		return j
	}
	return rb.sourceJSON(string(src))
}

// appendRow appends one result line, with its edge when hasEdge. A
// non-finite coordinate is the error json.Encoder reports for it.
func (rb *rowBuf) appendRow(srcJSON []byte, t, x, y float64, edge int, hasEdge bool) error {
	for _, f := range [3]float64{t, x, y} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	b := append(rb.buf, `{"source":`...)
	b = append(b, srcJSON...)
	b = appendJSONFloat(append(b, `,"t":`...), t)
	b = appendJSONFloat(append(b, `,"x":`...), x)
	b = appendJSONFloat(append(b, `,"y":`...), y)
	if hasEdge {
		b = strconv.AppendInt(append(b, `,"edge":`...), int64(edge), 10)
	}
	rb.buf = append(b, '}', '\n')
	return nil
}

// writeCSV writes the header, then the rows g holds for each of srcs
// in turn: what trajectory.WriteCSV writes for the same groups.
func (rb *rowBuf) writeCSV(w io.Writer, g *trajectory.Grouper, srcs []string) error {
	rb.buf = append(rb.buf, trajectory.CSVHeader...)
	flush := func() error { return rb.flushTo(w, 0) }
	for _, src := range srcs {
		if pts := g.Points(src); pts != nil {
			if err := rb.appendCSV(src, pts, flush); err != nil {
				return err
			}
		}
	}
	return flush()
}

// appendCSV appends src's points as CSV rows, calling flush whenever
// RowFlushBytes of rows are waiting.
func (rb *rowBuf) appendCSV(src string, pts []trajectory.Point, flush func() error) error {
	rb.id = trajectory.AppendCSVField(rb.id[:0], src)
	for _, p := range pts {
		rb.buf = trajectory.AppendCSVRow(rb.buf, rb.id, p.T, p.Pos.X, p.Pos.Y)
		if len(rb.buf) >= trajectory.RowFlushBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushTo writes the accumulated rows to w once there are at least min
// bytes of them.
func (rb *rowBuf) flushTo(w io.Writer, min int) error {
	if len(rb.buf) == 0 || len(rb.buf) < min {
		return nil
	}
	_, err := w.Write(rb.buf)
	rb.wrote += len(rb.buf)
	rb.buf = rb.buf[:0]
	return err
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation that round-trips, in exponent form only
// below 1e-6 and from 1e21 up, with a two-digit negative exponent
// trimmed to one (1e-07 -> 1e-7). The %f form is trajectory.AppendFloat,
// strconv's bytes with integers and short decimals taken on its fast
// path; the exponent form is strconv's own.
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return trajectory.AppendFloat(b, f, 'f')
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
