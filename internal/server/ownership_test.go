package server

// Buffer-ownership tests for the serving path (DESIGN.md "Buffer
// ownership on the serving path"): the allocation budget a steady
// ingest must stay under. The pooled request bodies have their hammer
// in bodypool_test.go, and the results slab and the snapshot theirs
// beside the engine (internal/session).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"sidq/internal/israce"
	"sidq/internal/roadnet"
	"sidq/internal/session"
	"sidq/internal/store"
)

// gridChunk is chunk c of a steady feed: rows per source for each of
// sources vehicles, one second apart, slow enough for the speed gate.
func gridChunk(prefix string, c, sources, rows int) string {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		tm := float64(c*rows + i)
		for s := 0; s < sources; s++ {
			fmt.Fprintf(&b, "%s%02d,%g,%g,%d\n", prefix, s, tm, 2*tm, 10*s)
		}
	}
	return b.String()
}

// discardWriter is the cheapest http.ResponseWriter: the budget below
// is the service's, not a recorder's. Like net/http's, it takes the
// first status it is given, and a Write before any is an implicit 200.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// discardClient opens a session on svc and returns its id and do, which
// sends one request built by hand into a discardWriter and fails the
// test unless it is answered 200: what a measurement around do counts
// is the service's, not httptest's.
func discardClient(t *testing.T, svc *Service) (id string, do func(method string, u *url.URL, body string)) {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream/open", nil))
	var opened struct{ Session string }
	if err := json.Unmarshal(rec.Body.Bytes(), &opened); err != nil || opened.Session == "" {
		t.Fatalf("open: %d %s", rec.Code, rec.Body)
	}
	w := &discardWriter{h: http.Header{}}
	return opened.Session, func(method string, u *url.URL, body string) {
		clear(w.h)
		w.status = 0
		svc.ServeHTTP(w, &http.Request{
			Method: method, URL: u, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body)),
		})
		if w.status != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, u, w.status)
		}
	}
}

// TestIngestSteadyStateAllocs holds the steady ingest path to a byte
// budget: a warmed durable session as sidqserve runs it (fsync=batch,
// snapshot every 16 chunks, request timeout on), a 256-row, 16-source
// chunk per request, a drain every 8. Every WAL record, the snapshot
// included, is appended into a pooled buffer, the chunk's ids stay
// views of the pooled body (a session clones an id only when it first
// sees it) and the ack is encoded by a pooled encoder, so the budget
// covers the request itself and the results slab each drain hands
// over.
func TestIngestSteadyStateAllocs(t *testing.T) {
	const budget = 5 << 10 // bytes per chunk, drains and snapshots included; 1.1 kB measured (1.2 kB with 16 id clones per chunk, 2.5–2.8 kB with a context and a request copy per request, 5.6 kB with a map per chunk, a JSON encoder per ack and url.Values per parameter)
	steadyIngestAllocs(t, StreamConfig{}, budget)
}

// TestIngestMatchedSteadyStateAllocs is the same loop with a road
// network, so every released point goes through an OnlineMatcher: the
// matcher, the candidate search and the route cache allocate nothing
// once warm, the snapshot reads the 16 lattices in place, and a result
// holds its edge id as a value, so a matched session allocates what a
// raw one does.
func TestIngestMatchedSteadyStateAllocs(t *testing.T) {
	const budget = 5 << 9 // 1.1 kB measured (3.2 kB with an 8-byte edge allocation per result, 4.6–4.7 kB with a context and a request copy per request, 7.6 kB with a map per chunk, a JSON encoder per ack and url.Values per parameter)
	city := roadnet.GridCity(roadnet.GridCityOptions{NX: 40, NY: 4, Spacing: 110, Jitter: 5, Seed: 9})
	steadyIngestAllocs(t, StreamConfig{Network: city}, budget)
}

// steadyIngestAllocs fails if a warmed session of stream allocates
// more than budget bytes per chunk, measured by warmCost. Each request
// yields the P after it, as a served request's goroutine does when it
// blocks reading its connection, so the WAL's flusher, which
// fsync=batch kicks at 64 kB of backlog, runs as it does in a server.
// A loop that never yields keeps the flusher off the one P until the
// scheduler preempts the loop; the log then fills its buffer to its
// 4 MB backlog and writes it out itself, and reuses its buffers from
// one such cycle to the next (store's
// TestBatchBacklogCyclesReuseTheirBuffers).
func steadyIngestAllocs(t *testing.T, stream StreamConfig, budget uint64) {
	svc, err := OpenService(Config{
		Logger:         DiscardLogger(),
		RequestTimeout: 30 * time.Second,
		Stream:         stream,
		Durability:     DurabilityConfig{Dir: t.TempDir(), Fsync: store.FsyncBatch, SnapshotEvery: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, do := discardClient(t, svc)
	// Bodies are rendered up front, so what is measured is the service's:
	// 64 to warm, then warmCost's 85.
	bodies := make([]string, 64+85)
	for c := range bodies {
		bodies[c] = gridChunk("veh-", c, 16, 16)
	}
	ingestURL, _ := url.Parse("/v1/stream/ingest?session=" + id)
	resultsURL, _ := url.Parse("/v1/stream/" + id + "/results")
	c := 0
	chunk := func() {
		do(http.MethodPost, ingestURL, bodies[c])
		if c%8 == 7 {
			do(http.MethodGet, resultsURL, "")
		}
		c++
		runtime.Gosched()
	}
	for c < 64 {
		chunk() // warm: pools filled, scratch at its steady size
	}
	_, perChunk := warmCost(chunk)
	t.Logf("steady ingest: %d bytes allocated per 256-row chunk", perChunk)
	if perChunk > budget && !israce.Enabled {
		t.Errorf("steady ingest allocates %d bytes per chunk, budget %d", perChunk, budget)
	}
}

// A body of bare newlines is a valid chunk of no rows. It used to cost
// 48 bytes of pre-sized event slab per byte of body before the scan
// began: 1.5 GiB at the default 32 MiB body cap.
func TestParsePointChunkBlankLinesAllocateNothingPerLine(t *testing.T) {
	body := bytes.Repeat([]byte{'\n'}, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var c session.Chunk
	err := parsePointChunk(&c, body)
	runtime.ReadMemStats(&after)
	if err != nil || c.Len() != 0 {
		t.Fatalf("%d rows, err %v; want a valid chunk of no rows", c.Len(), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(body)) && !israce.Enabled {
		t.Errorf("a %d-byte body of blank lines allocated %d bytes, want at most twice the body", len(body), got)
	}
}
