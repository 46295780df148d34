package session

// Historical range queries over the durable chunk log (the engine half
// of GET /v1/history/range).
//
// Every persisted ingest chunk is indexed by its spatio-temporal
// extent. A range query asks the index for candidate chunks (History),
// reads exactly those records back from the on-disk segments
// (store.ReadSeqs — point reads, nothing in between), tests each row's
// T/X/Y against the window in place on the record's columns, and hands
// the matching rows to the caller one at a time (Scan): the engine holds
// one chunk record in memory, never the result set. History covers
// closed and evicted sessions too: the log outlives the session state.
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
	"slices"
	"sort"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/store"
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

// widen raises maxSpan to cover e. Caller holds h.mu.
func (h *historyIndex) widen(e *histEntry) {
	if s := e.span(); s > h.maxSpan {
		h.maxSpan = s
	}
}

// add indexes one chunk record by the extent of its points. Chunks
// mostly arrive in event-time order, so the insert is an append or
// lands near the end.
func (h *historyIndex) add(seq uint64, pts []trajectory.Point) {
	if len(pts) == 0 {
		return
	}
	p := pts[0]
	e := histEntry{seq: seq, rect: geo.RectFromPoints(p.Pos), minT: p.T, maxT: p.T}
	for _, p := range pts[1:] {
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

// History is one range query's candidate set, known before a row is
// read.
type History struct {
	Chunks int    // candidate chunk records
	MinSeq uint64 // the retained floor: the oldest WAL seq still on disk

	e          *Engine
	seqs       []uint64
	rect       geo.Rect
	minT, maxT float64
}

// History looks the window up in the chunk index of a durable engine.
// MinSeq lets a client paging through time tell "no data" from "data
// aged out", by comparing it with the chunk seqs it saw. A memory-only
// engine keeps no history: it answers an empty one.
func (e *Engine) History(rect geo.Rect, minT, maxT float64) History {
	if e.wal == nil {
		return History{}
	}
	seqs := e.hist.search(rect, minT, maxT)
	return History{Chunks: len(seqs), MinSeq: e.wal.FirstSeq(), e: e, seqs: seqs, rect: rect, minT: minT, maxT: maxT}
}

// Scan reads the candidate chunks and hands each row inside the window
// to row, with the source id still in payload bytes (valid until row
// returns), and reports how many rows that was. A legacy (type 2) chunk
// is transcoded first, so there is one filter, over columns.
func (h *History) Scan(row func(src []byte, t, x, y float64) error) (returned int, err error) {
	if len(h.seqs) == 0 {
		return 0, nil
	}
	var enc *recEncoder
	var legacy Chunk  // a legacy chunk's rows, on their way to recChunk2
	var srcs [][]byte // the dictionary scratch every chunk is parsed with
	filtered := 0
	defer func() {
		if enc != nil {
			enc.release()
		}
		h.e.m.histReturned.Add(uint64(returned))
		h.e.m.histFiltered.Add(uint64(filtered))
	}()
	min, max := h.rect.Min, h.rect.Max
	return returned, h.e.wal.ReadSeqs(h.seqs, func(rec store.Record) error {
		payload := rec.Payload
		switch rec.Type {
		case recChunk2:
		case recChunk:
			c, err := decodeLegacyChunk(payload, &legacy)
			if err != nil {
				return err
			}
			if enc == nil {
				enc = getRecEncoder()
			}
			payload = enc.chunk(string(c.session), c.chunkIdx, c.clientSeq, &legacy)
		default:
			return nil
		}
		c, err := parseChunk2(payload, srcs)
		if err != nil {
			return err
		}
		if c.srcs != nil {
			srcs = c.srcs
		}
		for i := 0; i < c.n; i++ {
			t, x, y := colFloat(c.t, i), colFloat(c.x, i), colFloat(c.y, i)
			if x >= min.X && x <= max.X && y >= min.Y && y <= max.Y && t >= h.minT && t <= h.maxT {
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
