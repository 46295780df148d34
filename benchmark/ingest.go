package main

// Client side of one streaming session: open, ack-gated chunks with an
// increasing ?seq=, a drain of the cleaned rows every few chunks, the
// final flush and close — and the checks on everything that comes back.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
)

// ingestSession is one session as its client sees it.
type ingestSession struct {
	feed    *session
	id      string       // the service's session id
	acked   atomic.Int64 // chunks acked; read by the other client's history checks
	network *roadnet.Graph

	// What the drained rows add up to.
	lastT    [sourcesPerSession]float64
	rows     int
	sqErr    float64 // squared error of drained rows against truth
	lastBody []byte  // the flushed drain, kept for the crash-image check
}

func openSession(c *client, feed *session, network *roadnet.Graph) (*ingestSession, error) {
	if _, _, _, err := c.do(http.MethodPost, "/v1/stream/open?maxspeed="+strconv.FormatFloat(sessionMaxSpeed, 'f', -1, 64), nil); err != nil {
		return nil, err
	}
	var ack struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(c.body.Bytes(), &ack); err != nil || ack.Session == "" {
		return nil, fmt.Errorf("open %s: bad ack %q", feed.prefix, c.body.String())
	}
	s := &ingestSession{feed: feed, id: ack.Session, network: network}
	for j := range s.lastT {
		s.lastT[j] = -1
	}
	return s, nil
}

// send posts the next chunk and checks its ack. The returned times
// bracket the round trip.
func (s *ingestSession) send(c *client) (start, end time.Time, err error) {
	k := int(s.acked.Load())
	c.chunk = s.feed.appendChunk(c.chunk[:0], k)
	_, start, end, err = c.do(http.MethodPost, "/v1/stream/ingest?session="+s.id+"&seq="+strconv.Itoa(k+1), c.chunk)
	if err != nil {
		return start, end, err
	}
	var ack struct {
		Ingested  int  `json:"ingested"`
		Duplicate bool `json:"duplicate"`
	}
	if err := json.Unmarshal(c.body.Bytes(), &ack); err != nil {
		return start, end, fmt.Errorf("chunk %d: bad ack: %w", k, err)
	}
	if ack.Ingested != chunkRows || ack.Duplicate {
		c.failed++
		return start, end, fmt.Errorf("chunk %d: acked %d rows (duplicate=%v), sent %d", k, ack.Ingested, ack.Duplicate, chunkRows)
	}
	s.acked.Add(1)
	return start, end, nil
}

// drain fetches the cleaned rows released so far and checks them. With
// flush it ends the stream: reorder buffers and matcher lag come out.
func (s *ingestSession) drain(c *client, flush bool) (start, end time.Time, err error) {
	path := "/v1/stream/" + s.id + "/results"
	if flush {
		path += "?flush=1"
	}
	resp, start, end, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return start, end, err
	}
	n, err := s.checkRows(c.body.Bytes())
	if err != nil {
		return start, end, fmt.Errorf("session %s drain: %w", s.feed.prefix, err)
	}
	if got := resp.Header.Get("X-Sidq-Drained"); got != strconv.Itoa(n) {
		return start, end, fmt.Errorf("session %s drain: header says %s rows, body has %d", s.feed.prefix, got, n)
	}
	if flush {
		s.lastBody = append(s.lastBody[:0], c.body.Bytes()...)
	}
	return start, end, nil
}

// checkRows verifies one drain: every row names a source of this
// session, a source's times strictly ascend across all drains, and with
// a road network every row names an existing edge and lies on it.
func (s *ingestSession) checkRows(body []byte) (int, error) {
	n, err := forRows(body, func(row row) error {
		j, ok := s.feed.sourceIndex(row.source)
		if !ok {
			return fmt.Errorf("row names source %q, not one of session %s", row.source, s.feed.prefix)
		}
		if row.t <= s.lastT[j] {
			return fmt.Errorf("source %s: time %v after %v, not ascending", row.source, row.t, s.lastT[j])
		}
		s.lastT[j] = row.t
		pos := geo.Pt(row.x, row.y)
		if s.network != nil {
			if !row.hasEdge || row.edge < 0 || row.edge >= s.network.NumEdges() {
				return fmt.Errorf("source %s t=%v: edge %d does not exist (has edge: %v)", row.source, row.t, row.edge, row.hasEdge)
			}
			e := s.network.Edge(roadnet.EdgeID(row.edge))
			seg := geo.Segment{A: s.network.Node(e.From).Pos, B: s.network.Node(e.To).Pos}
			if d := seg.Dist(pos); d > 1e-6 {
				return fmt.Errorf("source %s t=%v: position is %.3g m off edge %d", row.source, row.t, d, row.edge)
			}
		} else if row.hasEdge {
			return fmt.Errorf("source %s t=%v: edge %d without a road network", row.source, row.t, row.edge)
		}
		s.sqErr += pos.DistSq(s.feed.truthAt(j, row.t))
		return nil
	})
	s.rows += n
	return n, err
}

// finish flushes, closes and checks the close summary against what was
// sent and against the generator's exact late count.
func (s *ingestSession) finish(c *client) error {
	if _, _, err := s.drain(c, true); err != nil {
		return err
	}
	if _, _, _, err := c.do(http.MethodDelete, "/v1/stream/"+s.id, nil); err != nil {
		return err
	}
	var sum struct {
		Ingested, Emitted, Late, Outliers, Dropped int
	}
	if err := json.Unmarshal(c.body.Bytes(), &sum); err != nil {
		return fmt.Errorf("session %s close: bad summary: %w", s.feed.prefix, err)
	}
	chunks := int(s.acked.Load())
	sent := chunks * chunkRows
	switch {
	case sum.Ingested != sent:
		return fmt.Errorf("session %s: ingested %d, sent %d", s.feed.prefix, sum.Ingested, sent)
	case sum.Emitted+sum.Outliers+sum.Late+sum.Dropped != sum.Ingested:
		return fmt.Errorf("session %s: emitted %d + outliers %d + late %d + dropped %d != ingested %d",
			s.feed.prefix, sum.Emitted, sum.Outliers, sum.Late, sum.Dropped, sum.Ingested)
	case sum.Late != s.feed.lateCount(chunks):
		return fmt.Errorf("session %s: late %d, the generator sent %d rows beyond the lateness bound", s.feed.prefix, sum.Late, s.feed.lateCount(chunks))
	case sum.Emitted != s.rows:
		return fmt.Errorf("session %s: emitted %d, drained %d", s.feed.prefix, sum.Emitted, s.rows)
	case sum.Dropped != 0:
		return fmt.Errorf("session %s: %d rows dropped after a flushed drain", s.feed.prefix, sum.Dropped)
	}
	return nil
}

// rmseRatio is RMSE(drained rows vs truth) / RMSE(sent rows vs truth).
func rmseRatio(sessions []*ingestSession) float64 {
	var out, in float64
	var nOut, nIn int
	for _, s := range sessions {
		chunks := int(s.acked.Load())
		out += s.sqErr
		nOut += s.rows
		in += s.feed.inputSqErr(chunks)
		nIn += chunks * chunkRows
	}
	if nOut == 0 || nIn == 0 || in == 0 {
		return 0
	}
	return math.Sqrt(out/float64(nOut)) / math.Sqrt(in/float64(nIn))
}

// forRows parses an NDJSON body line by line, hands each row to fn and
// returns how many rows passed.
func forRows(body []byte, fn func(row) error) (int, error) {
	n := 0
	for len(body) > 0 {
		line, rest, _ := bytes.Cut(body, []byte{'\n'})
		body = rest
		if len(line) == 0 {
			continue
		}
		r, err := parseRow(line)
		if err == nil {
			err = fn(r)
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// row is one NDJSON result line.
type row struct {
	source  []byte
	t, x, y float64
	edge    int
	hasEdge bool
}

// parseRow reads one line of the shape the service writes:
// {"source":"..","t":1,"x":2,"y":3} with an optional ,"edge":4. It is a
// strict reader for that one shape, because a general JSON decode of
// every drained row would cost the load generator more than the op it
// measures.
func parseRow(line []byte) (row, error) {
	var r row
	bad := func() (row, error) { return r, fmt.Errorf("bad result row %q", line) }
	rest, ok := bytes.CutPrefix(line, []byte(`{"source":"`))
	if !ok {
		return bad()
	}
	i := bytes.IndexByte(rest, '"')
	if i < 0 {
		return bad()
	}
	r.source, rest = rest[:i], rest[i+1:]
	var err error
	for _, f := range []struct {
		key string
		dst *float64
	}{{`,"t":`, &r.t}, {`,"x":`, &r.x}, {`,"y":`, &r.y}} {
		if rest, ok = bytes.CutPrefix(rest, []byte(f.key)); !ok {
			return bad()
		}
		end := bytes.IndexAny(rest, ",}")
		if end < 0 {
			return bad()
		}
		if *f.dst, err = strconv.ParseFloat(string(rest[:end]), 64); err != nil {
			return bad()
		}
		rest = rest[end:]
	}
	if after, ok := bytes.CutPrefix(rest, []byte(`,"edge":`)); ok {
		end := bytes.IndexByte(after, '}')
		if end < 0 {
			return bad()
		}
		if r.edge, err = strconv.Atoi(string(after[:end])); err != nil {
			return bad()
		}
		r.hasEdge = true
		rest = after[end:]
	}
	if string(rest) != "}" {
		return bad()
	}
	return r, nil
}
