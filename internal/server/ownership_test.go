package server

// Buffer-ownership tests for the serving path (DESIGN.md "Buffer
// ownership on the serving path"): the allocation budget a steady
// ingest must stay under, and — named *Hammer* so `make race-hammer`
// runs them under -race — that no pooled buffer is ever visible to two
// owners: the timeout writer against http.TimeoutHandler. The results
// slab and the snapshot have their hammers beside the engine
// (internal/session).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sidq/internal/israce"
	"sidq/internal/roadnet"
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
// is the service's, not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestIngestSteadyStateAllocs holds the steady ingest path to a byte
// budget: a warmed durable session as sidqserve runs it (fsync=batch,
// snapshot every 16 chunks, request timeout on), a 256-row, 16-source
// chunk per request, a drain every 8. At the parent of the change that
// added this test the same loop allocated ~200 kB a chunk, most of it
// buffers regrown from nil; what is left is the request itself, the
// per-chunk id clones and the snapshot's gob encoder.
func TestIngestSteadyStateAllocs(t *testing.T) {
	const budget = 48 << 10 // bytes per chunk, drains and snapshots included; 33 kB measured
	steadyIngestAllocs(t, StreamConfig{}, budget)
}

// TestIngestMatchedSteadyStateAllocs is the same loop with a road
// network, so every released point goes through an OnlineMatcher: the
// matcher, the candidate search and the route cache allocate nothing
// once warm, and what a matched session adds is the snapshot's lattices
// (16 matchers, gob-encoded every 16 chunks) and an edge id per result.
// Before Push recycled its columns this loop allocated 196 kB a chunk.
func TestIngestMatchedSteadyStateAllocs(t *testing.T) {
	const budget = 96 << 10 // 64 kB measured
	city := roadnet.GridCity(roadnet.GridCityOptions{NX: 40, NY: 4, Spacing: 110, Jitter: 5, Seed: 9})
	steadyIngestAllocs(t, StreamConfig{Network: city}, budget)
}

// steadyIngestAllocs fails if a warmed session of stream allocates
// more than budget bytes per chunk.
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
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream/open", nil))
	var opened struct{ Session string }
	if err := json.Unmarshal(rec.Body.Bytes(), &opened); err != nil || opened.Session == "" {
		t.Fatalf("open: %d %s", rec.Code, rec.Body)
	}
	// Bodies are rendered and requests built by hand up front, so what
	// is measured is the service's.
	bodies := make([]string, 256)
	for c := range bodies {
		bodies[c] = gridChunk("veh-", c, 16, 16)
	}
	ingestURL, _ := url.Parse("/v1/stream/ingest?session=" + opened.Session)
	resultsURL, _ := url.Parse("/v1/stream/" + opened.Session + "/results")
	w := &discardWriter{h: http.Header{}}
	do := func(method string, u *url.URL, body string) {
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
	round := func(chunks []string) {
		for i, c := range chunks {
			do(http.MethodPost, ingestURL, c)
			if i%8 == 7 {
				do(http.MethodGet, resultsURL, "")
			}
		}
	}
	round(bodies[:64]) // warm: pools filled, scratch at its steady size
	// The least of three rounds: a collection or a batch-fsync tick that
	// lands inside one reads as up to 20 kB a chunk the path did not spend.
	perChunk := ^uint64(0)
	for r := 1; r <= 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round(bodies[64*r : 64*(r+1)])
		runtime.ReadMemStats(&after)
		perChunk = min(perChunk, (after.TotalAlloc-before.TotalAlloc)/64)
	}
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
	events, err := parsePointChunk(body)
	runtime.ReadMemStats(&after)
	if err != nil || len(events) != 0 {
		t.Fatalf("%d events, err %v; want a valid chunk of no rows", len(events), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(body)) && !israce.Enabled {
		t.Errorf("a %d-byte body of blank lines allocated %d bytes, want at most twice the body", len(body), got)
	}
}

// writeUntilRefused waits for the request's context to end and then
// writes until the expiry path, which runs beside it, has taken the
// writer; it returns what the refused write returned (nil if none was
// refused within two seconds).
func writeUntilRefused(w http.ResponseWriter, r *http.Request) error {
	<-r.Context().Done()
	for start := time.Now(); time.Since(start) < 2*time.Second; runtime.Gosched() {
		if _, err := io.WriteString(w, "too late"); err != nil {
			return err
		}
	}
	return nil
}

// timeoutOutcome is what a client and the handler saw of one request.
type timeoutOutcome struct {
	status  int
	header  http.Header
	body    string
	lateErr error // what the handler's write after expiry returned
}

// TestTimeoutHammerParity runs one handler table under
// http.TimeoutHandler and under withTimeout, behind withRecovery, and
// wants the same response and the same late-write error from both.
func TestTimeoutHammerParity(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", (maxPooledBuf+4096)/16)
	cases := []struct {
		name   string
		expire bool // the deadline passes while the handler runs
		cancel bool // the client goes away while the handler runs
		h      func(w http.ResponseWriter, r *http.Request, late *error)
	}{
		{"status, header and body", false, false, func(w http.ResponseWriter, r *http.Request, _ *error) {
			w.Header().Set("X-Test", "a")
			w.Header().Add("X-Multi", "1")
			w.Header().Add("X-Multi", "2")
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, "made")
		}},
		{"nothing written", false, false, func(http.ResponseWriter, *http.Request, *error) {}},
		{"body before header", false, false, func(w http.ResponseWriter, r *http.Request, _ *error) {
			io.WriteString(w, "first")
			w.Header().Set("X-Late", "kept, as net/http's buffered header map keeps it")
		}},
		{"deadline on the context", false, false, func(w http.ResponseWriter, r *http.Request, _ *error) {
			if _, ok := r.Context().Deadline(); ok {
				io.WriteString(w, "deadline")
			}
		}},
		{"expiry", true, false, func(w http.ResponseWriter, r *http.Request, late *error) {
			w.Header().Set("X-Never", "sent")
			io.WriteString(w, "buffered and dropped")
			*late = writeUntilRefused(w, r)
		}},
		{"client gone", false, true, func(w http.ResponseWriter, r *http.Request, late *error) {
			*late = writeUntilRefused(w, r)
		}},
		{"panic", false, false, func(http.ResponseWriter, *http.Request, *error) { panic("boom") }},
		{"response over the pooled size", false, false, func(w http.ResponseWriter, r *http.Request, _ *error) {
			io.WriteString(w, big)
		}},
	}
	for _, tc := range cases {
		// Only the expiry case may meet its deadline, however slow the box.
		dt := time.Minute
		if tc.expire {
			dt = 30 * time.Millisecond
		}
		svc := newTestService(Config{RequestTimeout: dt})
		run := func(wrap func(http.Handler) http.Handler) timeoutOutcome {
			var out timeoutOutcome
			returned := make(chan struct{})
			h := svc.withRecovery(wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				defer close(returned)
				tc.h(w, r, &out.lateErr)
			})))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				time.AfterFunc(10*time.Millisecond, cancel)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx))
			<-returned
			out.status, out.header, out.body = rec.Code, rec.Header(), rec.Body.String()
			return out
		}
		want := run(func(h http.Handler) http.Handler { return http.TimeoutHandler(h, dt, "request timed out") })
		got := run(svc.withTimeout)
		if got.status != want.status || got.body != want.body || fmt.Sprint(got.header) != fmt.Sprint(want.header) {
			t.Errorf("%s: got %d %v %.40q, http.TimeoutHandler gives %d %v %.40q",
				tc.name, got.status, got.header, got.body, want.status, want.header, want.body)
		}
		if !errors.Is(got.lateErr, want.lateErr) {
			t.Errorf("%s: late write returned %v, http.TimeoutHandler's returns %v", tc.name, got.lateErr, want.lateErr)
		}
		svc.Close()
	}
	// The oversized response's writer was dropped, not pooled.
	for i := 0; i < 64; i++ {
		if tw := timeoutWriters.Get().(*timeoutWriter); tw.buf.Cap() > maxPooledBuf {
			t.Fatalf("the pool holds a writer with a %d-byte buffer, cap %d", tw.buf.Cap(), maxPooledBuf)
		}
	}
}

// TestTimeoutHammerNoCrossTalk: concurrent clients with distinct
// payloads, some of whose handlers outlive the deadline and keep
// writing. No response may hold a byte of anyone else's.
func TestTimeoutHammerNoCrossTalk(t *testing.T) {
	svc := newTestService(Config{RequestTimeout: 250 * time.Millisecond})
	defer svc.Close()
	payload := func(id string) string {
		n := 1
		for _, ch := range id {
			n = (n*31 + int(ch)) % 400
		}
		return strings.Repeat("<"+id+">", 1+n)
	}
	var handlers sync.WaitGroup
	srv := httptest.NewServer(svc.withTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlers.Add(1)
		defer handlers.Done()
		id := r.URL.Query().Get("id")
		w.Header().Set("X-Echo", id)
		if strings.HasPrefix(id, "slow") {
			<-r.Context().Done()
			for i := 0; i < 50; i++ { // scribble on a writer the expiry path has abandoned
				io.WriteString(w, payload(id))
			}
			return
		}
		io.WriteString(w, payload(id))
	})))
	defer srv.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	served := 0
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("c%d-%d", c, i)
				if c == 0 && i%10 == 0 {
					id = "slow-" + id
				}
				resp, err := http.Get(srv.URL + "/?id=" + id)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK && !strings.HasPrefix(id, "slow"):
					if string(body) != payload(id) || resp.Header.Get("X-Echo") != id {
						t.Errorf("%s: echo %q, body %.60q", id, resp.Header.Get("X-Echo"), body)
					}
					mu.Lock()
					served++
					mu.Unlock()
				case resp.StatusCode == http.StatusServiceUnavailable: // slow by design, or a starved box
					if string(body) != "request timed out" || resp.Header.Get("X-Echo") != "" {
						t.Errorf("%s: 503 with echo %q, body %.60q", id, resp.Header.Get("X-Echo"), body)
					}
				default:
					t.Errorf("%s: status %d", id, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	handlers.Wait()
	if served == 0 {
		t.Fatal("no request was served in time")
	}
}
