package server

// Historical range queries over the durable chunk log:
//
//	GET /v1/history/range?minx=&miny=&maxx=&maxy=&mint=&maxt=
//
// Every persisted ingest chunk is indexed by its spatio-temporal
// extent. A range query asks the index for candidate chunks, reads
// exactly those records back from the on-disk segments (store.ReadSeqs
// — point reads, nothing in between), tests each row's T/X/Y against
// the window in place on the record's columns, and writes the matching
// rows with the shared row writer. History covers closed and
// evicted sessions too: the log outlives the session state.
//
// The index is keyed by time, not space. A chunk holds many sources,
// so its bounding box covers most of the city and a spatial tree over
// chunk boxes prunes almost nothing; what does separate chunks is when
// they were written. Entries are kept ordered by their earliest event
// time, so a query binary-searches the run of entries that can overlap
// its time range and tests boxes on that run only — its cost follows
// the chunks in the queried time range, not the chunks in the log.

import (
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
)

// histEntry is one chunk record's spatio-temporal extent.
type histEntry struct {
	seq        uint64
	rect       geo.Rect
	minT, maxT float64
}

// historyIndex maps WAL chunk records to their spatio-temporal
// extents. Safe for concurrent use (replay is single-threaded, but
// live ingests on different sessions index concurrently).
type historyIndex struct {
	mu      sync.Mutex
	entries []histEntry // ordered by minT
	// maxSpan bounds every entry's maxT-minT from above, so entries that
	// can reach a query starting at t all have minT >= t-maxSpan.
	maxSpan float64
}

// span is the entry's time span rounded up, so that minT >= maxT - span
// holds exactly whatever the subtraction rounded to.
func (e *histEntry) span() float64 { return math.Nextafter(e.maxT-e.minT, math.Inf(1)) }

func newHistoryIndex() *historyIndex { return &historyIndex{} }

// widen raises maxSpan to cover e. Caller holds h.mu.
func (h *historyIndex) widen(e *histEntry) {
	if s := e.span(); s > h.maxSpan {
		h.maxSpan = s
	}
}

// add indexes one chunk record by the extent of its events. Chunks
// mostly arrive in event-time order, so the insert is an append or
// lands near the end.
func (h *historyIndex) add(seq uint64, events []stream.Event[srcPoint]) {
	if len(events) == 0 {
		return
	}
	p := events[0].Value.pt
	e := histEntry{seq: seq, rect: geo.RectFromPoints(p.Pos), minT: p.T, maxT: p.T}
	for i := 1; i < len(events); i++ {
		p := events[i].Value.pt
		e.rect = e.rect.ExtendPoint(p.Pos)
		e.minT = math.Min(e.minT, p.T)
		e.maxT = math.Max(e.maxT, p.T)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.widen(&e)
	at := sort.Search(len(h.entries), func(i int) bool { return h.entries[i].minT > e.minT })
	h.entries = slices.Insert(h.entries, at, e)
}

// removeBelow drops every entry whose WAL seq is below minSeq —
// called by the retention loop after TruncateFront so the index never
// answers with seqs the disk no longer holds (and so a long-running
// server's index stops growing without bound). maxSpan is retaken from
// the survivors, so one chunk with a wide time span stops widening
// every search once it has aged out. Returns how many entries were
// removed.
func (h *historyIndex) removeBelow(minSeq uint64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	before := len(h.entries)
	h.maxSpan = 0
	h.entries = slices.DeleteFunc(h.entries, func(e histEntry) bool {
		if e.seq < minSeq {
			return true
		}
		h.widen(&e)
		return false
	})
	return before - len(h.entries)
}

// search returns the WAL seqs of chunks whose extent intersects the
// window, in seq (= ingestion) order.
func (h *historyIndex) search(rect geo.Rect, minT, maxT float64) []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Only entries with minT in [minT-maxSpan, maxT] can overlap the time
	// range. The lower key is rounded down for the same reason maxSpan is
	// rounded up; Inf-Inf (an empty index queried from +Inf) is NaN and
	// prunes nothing.
	from := math.Nextafter(minT-h.maxSpan, math.Inf(-1))
	if math.IsNaN(from) {
		from = math.Inf(-1)
	}
	lo := sort.Search(len(h.entries), func(i int) bool { return h.entries[i].minT >= from })
	var seqs []uint64
	for i := lo; i < len(h.entries) && h.entries[i].minT <= maxT; i++ {
		if e := &h.entries[i]; e.maxT >= minT && e.rect.Intersects(rect) {
			seqs = append(seqs, e.seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// queryFloatAny parses a float query parameter admitting any finite
// value (range bounds are signed coordinates).
func queryFloatAny(r *http.Request, key string, def float64) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) {
		return 0, &paramError{key: key, value: s}
	}
	return v, nil
}

func (s *Service) handleHistoryRange(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	reg := s.streams
	if reg.wal == nil {
		http.Error(w, "history disabled: start the server with a -data directory", http.StatusNotFound)
		return
	}
	var bounds [6]float64
	for i, p := range []struct {
		key string
		def float64
	}{
		{"minx", math.Inf(-1)}, {"miny", math.Inf(-1)}, {"mint", math.Inf(-1)},
		{"maxx", math.Inf(1)}, {"maxy", math.Inf(1)}, {"maxt", math.Inf(1)},
	} {
		v, err := queryFloatAny(r, p.key, p.def)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		bounds[i] = v
	}
	minX, minY, minT, maxX, maxY, maxT := bounds[0], bounds[1], bounds[2], bounds[3], bounds[4], bounds[5]
	if minX > maxX || minY > maxY || minT > maxT {
		http.Error(w, "empty range: min bound exceeds max", http.StatusBadRequest)
		return
	}
	format := r.URL.Query().Get("format") // ndjson unless csv
	if format != "" && format != "ndjson" && format != "csv" {
		http.Error(w, (&paramError{key: "format", value: format}).Error(), http.StatusBadRequest)
		return
	}
	rect := geo.Rect{Min: geo.Pt(minX, minY), Max: geo.Pt(maxX, maxY)}
	seqs := reg.hist.search(rect, minT, maxT)
	// X-Sidq-History-Min-Seq is the retained floor: the oldest WAL seq
	// still on disk. A client paging through time can tell "no data"
	// from "data aged out" by comparing it with the chunk seqs it saw.
	w.Header().Set("X-Sidq-Chunks", strconv.Itoa(len(seqs)))
	w.Header().Set("X-Sidq-History-Min-Seq", strconv.FormatUint(reg.wal.FirstSeq(), 10))

	// scan reads the candidate chunks and hands each row inside the
	// window to row, with the source id still in payload bytes. A legacy
	// (type 2) chunk is transcoded first, so there is one filter, over
	// columns.
	var enc *chunkEncoder
	returned, filtered := 0, 0
	scan := func(row func(src []byte, t, x, y float64) error) error {
		return reg.wal.ReadSeqs(seqs, func(rec store.Record) error {
			payload := rec.Payload
			switch rec.Type {
			case recChunk2:
			case recChunk:
				c, err := decodeLegacyChunk(payload)
				if err != nil {
					return err
				}
				if enc == nil {
					enc = getChunkEncoder()
				}
				payload = enc.encode(c.session, c.chunkIdx, c.clientSeq, c.events)
			default:
				return nil
			}
			c, err := parseChunk2(payload)
			if err != nil {
				return err
			}
			for i := 0; i < c.n; i++ {
				t, x, y := colFloat(c.t, i), colFloat(c.x, i), colFloat(c.y, i)
				if x >= minX && x <= maxX && y >= minY && y <= maxY && t >= minT && t <= maxT {
					returned++
					if err := row(c.srcs[c.src(i)], t, x, y); err != nil {
						return err
					}
				} else {
					filtered++
				}
			}
			return nil
		})
	}
	defer func() {
		if enc != nil {
			enc.release()
		}
		reg.m.histReturned.Add(uint64(returned))
		reg.m.histFiltered.Add(uint64(filtered))
	}()

	rb := getRowBuf()
	defer rb.release()
	var err error
	if format == "csv" {
		// CSV groups rows per source, so the whole result set has to be
		// read — into columns — before the first output byte, and its size
		// is known when the headers go out. Use ndjson for wide windows.
		b := trajectory.NewColumnsBuilder()
		err = scan(func(src []byte, t, x, y float64) error {
			b.Add(string(src), t, x, y) // Add keeps no reference to src
			return nil
		})
		if err == nil {
			w.Header().Set("X-Sidq-Points", strconv.Itoa(returned))
			w.Header().Set("Content-Type", "text/csv")
			err = rb.writeCSV(w, b, b.IDs())
		}
	} else {
		// ndjson streams: rows are written out as the buffer fills, so a
		// wide window holds one chunk record and one buffer of rows in
		// memory, never the whole result set. (That is also why ndjson
		// carries no X-Sidq-Points header — the count is unknown when the
		// headers are sent.)
		w.Header().Set("Content-Type", "application/x-ndjson")
		err = scan(func(src []byte, t, x, y float64) error {
			if err := rb.appendRow(rb.sourceJSONBytes(src), t, x, y, nil); err != nil {
				return err
			}
			return rb.flushTo(w, trajectory.RowFlushBytes)
		})
		if err == nil {
			err = rb.flushTo(w, 0)
		}
	}
	if err != nil {
		if rb.wrote == 0 {
			http.Error(w, "history read: "+err.Error(), http.StatusInternalServerError)
			return
		}
		// Mid-stream failure: the status line is long gone, so report
		// it the way every other streaming handler does.
		s.writeError(r, err)
	}
}
