package server

// The ndjson row writer: the one encoder of streamResult lines, shared
// by the session drain and the history range query. It appends rows to
// a pooled byte buffer and produces exactly the bytes json.Encoder
// produces for a streamResult — same field order, same float
// formatting, same string escaping — without reflection.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// rowFlushBytes is how much a rowBuf accumulates before it is written
// out: large enough that a response is a handful of writes, small
// enough that a wide window never holds more than this in memory.
const rowFlushBytes = 32 << 10

// rowBuf accumulates ndjson result lines.
type rowBuf struct {
	buf   []byte
	names map[string][]byte // source id -> its JSON string literal
}

var rowBufs = sync.Pool{New: func() any { return &rowBuf{names: map[string][]byte{}} }}

func getRowBuf() *rowBuf { return rowBufs.Get().(*rowBuf) }

func (rb *rowBuf) release() {
	rb.buf = rb.buf[:0]
	clear(rb.names)
	rowBufs.Put(rb)
}

// sourceJSON returns src as a JSON string literal, escaped the way
// encoding/json escapes it (HTML-safe, U+2028/9, invalid UTF-8 to
// U+FFFD). One Marshal per distinct source per response.
func (rb *rowBuf) sourceJSON(src string) []byte {
	if j, ok := rb.names[src]; ok {
		return j
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

// appendRow appends one result line. A non-finite coordinate is the
// error json.Encoder reports for it.
func (rb *rowBuf) appendRow(srcJSON []byte, t, x, y float64, edge *int) error {
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
	if edge != nil {
		b = strconv.AppendInt(append(b, `,"edge":`...), int64(*edge), 10)
	}
	rb.buf = append(b, '}', '\n')
	return nil
}

// flushTo writes the accumulated rows to w once there are at least min
// bytes of them, and reports how many bytes it handed to w.
func (rb *rowBuf) flushTo(w io.Writer, min int) (int, error) {
	n := len(rb.buf)
	if n == 0 || n < min {
		return 0, nil
	}
	_, err := w.Write(rb.buf)
	rb.buf = rb.buf[:0]
	return n, err
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation that round-trips, in exponent form only
// below 1e-6 and from 1e21 up, with a two-digit negative exponent
// trimmed to one (1e-07 -> 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
