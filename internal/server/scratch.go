package server

// The request scratch: the one owner of the memory a request fills and
// drops — its body, its parsed points or chunk, its response rows and
// its JSON answer. Every handler that reads a body whole, writes result
// rows or answers in JSON takes one scratch and gives it back once, with
// release, when nothing reads it any more. The one exception is a /v1/clean whose run
// returned an error: a run cut by its deadline abandons a worker that
// may still read the parsed points and write rows, so that request
// leaves its scratch to the GC.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"sidq/internal/session"
	"sidq/internal/trajectory"
)

// scratch is one request's memory.
type scratch struct {
	body  bytes.Buffer       // the request body, until its parse returns (or release, for chunk's views)
	g     trajectory.Grouper // /v1/assess and /v1/clean's points; a CSV response's groups
	chunk session.Chunk      // an ingest chunk, its ids views of body
	rows  rowBuf             // the response rows, ndjson or CSV
	sink  cleanSink          // /v1/clean's core.Sink, writing through rows
	out   bytes.Buffer       // a JSON answer
	enc   *json.Encoder      // indenting, bound to out; nil until the first answer
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratches.Get().(*scratch) }

const maxPooledBuf = 1 << 20 // a body or JSON buffer grown past this is not kept

// release empties the scratch and pools it. Each buffer keeps its
// memory up to its cap: the body and JSON buffers 1 MiB
// (maxPooledBuf), the grouper 32 768 rows of scratch and 65 536 points
// or ids (Grouper.Reset), the chunk 16 384 rows (Chunk.Reset) and the
// rows twice RowFlushBytes. What is kept holds no id string.
func (sc *scratch) release() {
	sc.g.Reset()
	sc.chunk.Reset()
	sc.rows.reset()
	sc.sink = cleanSink{}
	if sc.out.Cap() > maxPooledBuf { // the encoder's indent buffer grew with it
		sc.out, sc.enc = bytes.Buffer{}, nil
	}
	scratches.Put(sc)
}

// maxBodyPrealloc caps what a body read allocates on a Content-Length's
// word alone; a longer body grows the buffer as it arrives.
const maxBodyPrealloc = 1 << 20

// parseBody reads r's whole body, once, into the scratch's buffer and
// hands it to parse. ParseCSVGroups clones every id it keeps, the chunk
// parsePointChunk fills keeps views of the body until release, and
// parse errors format copies. A buffer grown past maxPooledBuf is
// dropped when parse returns, so the scratch does not hold a long body
// through the rest of its request.
func (sc *scratch) parseBody(r *http.Request, parse func(body []byte) error) error {
	sc.body.Reset()
	err := readBody(&sc.body, r)
	if err == nil {
		err = parse(sc.body.Bytes())
	}
	if sc.body.Cap() > maxPooledBuf {
		sc.body = bytes.Buffer{}
	}
	return err
}

// readBody reads r's body into buf, sized from Content-Length — the
// frame has refused any above the body cap — plus the
// bytes.MinRead that ReadFrom wants free to find EOF without growing.
// Up to maxBodyPrealloc bytes are allocated on the Content-Length's
// word alone; a body that has sent that much is taken at its word for
// the rest, read into one buffer of its length rather than a doubling
// series that ends up to twice it.
func readBody(buf *bytes.Buffer, r *http.Request) error {
	n := int(max(r.ContentLength, 0))
	buf.Grow(min(n, maxBodyPrealloc) + bytes.MinRead)
	if n > maxBodyPrealloc {
		if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxBodyPrealloc)); err != nil {
			return err
		}
		if buf.Len() == maxBodyPrealloc {
			buf.Grow(n - buf.Len() + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r.Body)
	return err
}

// writeJSON encodes v before it writes the header, so a value that
// cannot be encoded is a 500 with the reason, not a 2xx with no body.
func (sc *scratch) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	if sc.enc == nil {
		sc.enc = json.NewEncoder(&sc.out)
		sc.enc.SetIndent("", "  ")
	}
	sc.out.Reset()
	if err := sc.enc.Encode(v); err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(sc.out.Bytes()) // a failed write means the client is gone
}
