package server

// The request deadline's contract (DESIGN.md "Hardened server"): a body
// still arriving at the deadline fails its read and the route answers
// 503; an engine call already begun answers what happened; a kept-alive
// connection outlives a request that passed its deadline; responses
// stream to the client instead of collecting in memory; and a response
// that cannot finish is cut, never ended cleanly.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"os"
	"path"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidq/internal/israce"
	"sidq/internal/store"
)

// hookFS is the OS filesystem with two faults a test switches on while
// the service runs: every file Sync sleeps syncDelay first, and once
// armed, every ReadAt of a segment opened after the next okOpens fails.
type hookFS struct {
	store.OSFS
	syncDelay atomic.Int64 // a time.Duration
	armed     atomic.Bool
	okOpens   atomic.Int64
}

type hookFile struct {
	store.File
	fs   *hookFS
	fail bool
}

func (f *hookFS) Create(name string) (store.File, error) {
	file, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: file, fs: f}, nil
}

func (f *hookFS) Open(name string) (store.File, error) {
	file, err := f.OSFS.Open(name)
	if err != nil {
		return nil, err
	}
	fail := f.armed.Load() && strings.HasPrefix(path.Base(name), "seg-") && f.okOpens.Add(-1) < 0
	return &hookFile{File: file, fs: f, fail: fail}, nil
}

func (h *hookFile) Sync() error {
	time.Sleep(time.Duration(h.fs.syncDelay.Load()))
	return h.File.Sync()
}

func (h *hookFile) ReadAt(p []byte, off int64) (int, error) {
	if h.fail {
		return 0, errors.New("injected read failure")
	}
	return h.File.ReadAt(p, off)
}

// openHookService is a durable service over fs, served over loopback.
func openHookService(t *testing.T, fs *hookFS, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.Logger = DiscardLogger()
	cfg.Durability.Dir, cfg.Durability.FS = t.TempDir(), fs
	svc, err := OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(func() {
		srv.Close()
		fs.syncDelay.Store(0)
		svc.Close()
	})
	return svc, srv
}

// postStalled sends the start of a body to target and the rest only
// after ten seconds, or once the answer is in; it returns the answer's
// status and body (0 and the error when there was no answer).
func postStalled(client *http.Client, target, start string) (int, string) {
	pr, pw := io.Pipe()
	defer pw.Close()
	defer time.AfterFunc(10*time.Second, func() { pw.Close() }).Stop()
	go pw.Write([]byte(start)) // the transport reads it; nothing follows
	req, _ := http.NewRequest(http.MethodPost, target, pr)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// TestRequestTimeout: on every route that reads a body, a body stalled
// past the deadline answers 503 "request timed out", and its in-flight
// slot is free once the client has the answer.
func TestRequestTimeout(t *testing.T) {
	svc := newTestService(Config{RequestTimeout: 50 * time.Millisecond})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	id := openStream(t, srv, "")
	trajectoryStart := "id,t,x,y\nveh-0,0,1,2\n"
	readingsStart := "sensor,t,x,y,value\ns-0,0,1,2,3\n"
	for _, tc := range []struct{ route, start string }{
		{"/v1/assess", trajectoryStart},
		{"/v1/clean", trajectoryStart},
		{"/v1/readings/assess", readingsStart},
		{"/v1/readings/clean", readingsStart},
		{"/v1/stream/ingest?session=" + id, "veh-0,0,1,2\n"},
	} {
		t.Run(strings.TrimPrefix(tc.route, "/v1/"), func(t *testing.T) {
			start := time.Now()
			status, body := postStalled(http.DefaultClient, srv.URL+tc.route, tc.start)
			if status != http.StatusServiceUnavailable || body != timedOut+"\n" {
				t.Fatalf("stalled body: %d %q, want 503 %q", status, body, timedOut)
			}
			if took := time.Since(start); took > 5*time.Second {
				t.Fatalf("the 503 took %v against a 50ms deadline", took)
			}
			if n := svc.metrics.Gauge(mInFlight).Value(); n != 0 {
				t.Fatalf("%s = %d after the answer, want 0", mInFlight, n)
			}
		})
	}
}

// TestIngestPastDeadlineAnswersItsAck: an ingest whose fsync outlasts
// the request's deadline was applied, so it answers its ack, and the
// rows drain. A 503 from the ingest route means only "not applied": a
// client that retried on one without ?seq= would store the chunk twice.
func TestIngestPastDeadlineAnswersItsAck(t *testing.T) {
	fs := &hookFS{}
	_, srv := openHookService(t, fs, Config{
		RequestTimeout: 100 * time.Millisecond,
		Durability:     DurabilityConfig{Fsync: store.FsyncAlways},
	})
	id := openStream(t, srv, "lateness=0")
	fs.syncDelay.Store(int64(300 * time.Millisecond))
	ack, resp := ingestChunk(t, srv, id, chunkRow("veh-0", 1, 0, 0)+chunkRow("veh-0", 2, 10, 0))
	if resp.StatusCode != http.StatusOK || ack.Ingested != 2 {
		t.Fatalf("an ingest applied past its deadline answered %d %+v, want 200 and its ack of 2 rows", resp.StatusCode, ack)
	}
	fs.syncDelay.Store(0)
	if _, resp := drainStream(t, srv, id, "flush=1"); resp.Header.Get("X-Sidq-Drained") != "2" {
		t.Fatalf("drained %q rows, want the ingest's 2", resp.Header.Get("X-Sidq-Drained"))
	}
}

// TestDeadlineKeepAliveHammer: kept-alive clients mix bodies that stall
// past the deadline with ingests and a session close whose fsync
// outlasts it, each of those followed on the same connection by a
// clean. The stalled body answers 503; the ingest and the close answer
// what they did; and the clean, whose runner stops on a cancelled
// context, is served with a live one. net/http cancels a connection's
// context when a read deadline fires on its background read, which runs
// through the whole of a request without a body, such as the close.
func TestDeadlineKeepAliveHammer(t *testing.T) {
	fs := &hookFS{}
	_, srv := openHookService(t, fs, Config{
		RequestTimeout: 100 * time.Millisecond,
		Durability:     DurabilityConfig{Fsync: store.FsyncAlways},
	})
	clean := trajectoryCSV(t).String()
	ids := make([]string, 4)
	for c := range ids {
		ids[c] = openStream(t, srv, "lateness=0")
	}
	fs.syncDelay.Store(int64(150 * time.Millisecond))
	var wg sync.WaitGroup
	for c, id := range ids {
		wg.Add(1)
		go func(c int, id string) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			// step sends one request past its deadline and a clean after
			// it on the same connection.
			step := func(what, method, target, body string) {
				if status, text, _ := doOn(client, method, target, body); status != http.StatusOK {
					t.Errorf("client %d: %s past its deadline answered %d %q", c, what, status, text)
					return
				}
				status, text, reused := doOn(client, http.MethodPost, srv.URL+"/v1/clean", clean)
				if !reused {
					t.Errorf("client %d: the clean after the %s went out on a new connection", c, what)
				}
				if status != http.StatusOK {
					t.Errorf("client %d: the clean after the %s answered %d %.80q", c, what, status, text)
				}
			}
			for i := 0; i < 4; i++ {
				if (c+i)%3 == 0 {
					if status, body := postStalled(client, srv.URL+"/v1/clean", "id,t,x,y\n"); status != http.StatusServiceUnavailable || body != timedOut+"\n" {
						t.Errorf("client %d: stalled body answered %d %q", c, status, body)
					}
					continue
				}
				chunk := chunkRow("veh-0", float64(2*i), 0, 0) + chunkRow("veh-0", float64(2*i+1), 10, 0)
				step("ingest", http.MethodPost, srv.URL+"/v1/stream/ingest?session="+id, chunk)
			}
			step("close", http.MethodDelete, srv.URL+"/v1/stream/"+id, "")
		}(c, id)
	}
	wg.Wait()
}

// doOn sends one request through client and reports the answer and
// whether it went out on a kept-alive connection.
func doOn(client *http.Client, method, target, body string) (status int, text string, reused bool) {
	req, _ := http.NewRequest(method, target, strings.NewReader(body))
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	}))
	resp, err := client.Do(req)
	if err != nil {
		return 0, err.Error(), reused
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(b), reused
}

// TestHistoryNDJSONAllocsFlat: a wide ndjson history answer goes to the
// client as it is written, so what the request allocates does not grow
// with the rows it returns. A response collected in memory would cost
// about twice the answer: over 8 MB for the full window here. A narrow
// window, one chunk's stamps, is held to narrowBudget: the query is read
// without url.Values and the record buffer comes from the store's pool,
// so what is left is the request's own bookkeeping (11 kB before those
// two, at every width).
func TestHistoryNDJSONAllocsFlat(t *testing.T) {
	const (
		budget       = 512 << 10 // bytes per request, whatever the window; 3–7 kB measured
		narrowBudget = 6 << 10   // bytes per request for one chunk's stamps; 3 kB measured
	)
	svc, err := OpenService(Config{
		Logger: DiscardLogger(),
		Durability: DurabilityConfig{
			Dir: t.TempDir(), Fsync: store.FsyncOff, SnapshotEvery: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, do := discardClient(t, svc)
	ingestURL, _ := url.Parse("/v1/stream/ingest?session=" + id)
	const chunks = 256 // 16 sources × 16 stamps each: 16 rows at each t = 0..4095
	for c := 0; c < chunks; c++ {
		do(http.MethodPost, ingestURL, gridChunk("veh-", c, 16, 16))
	}
	for _, window := range []struct {
		name   string
		stamps int
	}{{"one chunk", 16}, {"an eighth", chunks * 16 / 8}, {"all", chunks * 16}} {
		target, _ := url.Parse(fmt.Sprintf("/v1/history/range?maxt=%d", window.stamps-1))
		do(http.MethodGet, target, "") // warm
		spent := ^uint64(0)
		for r := 0; r < 3; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			do(http.MethodGet, target, "")
			runtime.ReadMemStats(&after)
			spent = min(spent, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("history window %s (%d rows): %d bytes allocated", window.name, window.stamps*16, spent)
		if spent > budget && !israce.Enabled {
			t.Errorf("history window %s (%d rows) allocates %d bytes, budget %d", window.name, window.stamps*16, spent, budget)
		}
		if window.stamps == 16 && spent > narrowBudget && !israce.Enabled {
			t.Errorf("narrow history window (%d rows) allocates %d bytes, budget %d", window.stamps*16, spent, narrowBudget)
		}
	}
}

// TestHistoryReadErrorMidStreamCutsResponse: a segment that fails to
// read after rows have gone out cuts the response, so the client's
// read fails instead of ending cleanly short of the window.
func TestHistoryReadErrorMidStreamCutsResponse(t *testing.T) {
	fs := &hookFS{}
	svc, srv := openHookService(t, fs, Config{
		Durability: DurabilityConfig{Fsync: store.FsyncOff, SegmentBytes: 4 << 10},
	})
	id := openStream(t, srv, "lateness=0")
	for c := 0; c < 40; c++ {
		if _, resp := ingestChunk(t, srv, id, gridChunk("veh-", c, 8, 8)); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d", c, resp.StatusCode)
		}
	}
	whole, _, status := historyGet(t, srv, "")
	if status != http.StatusOK || strings.Count(whole, "\n") != 40*64 {
		t.Fatalf("unfaulted history: %d, %d rows; want 200 and %d rows", status, strings.Count(whole, "\n"), 40*64)
	}
	// Past the first half of the segments, reads fail: well after the
	// first 32 kB of rows has been written out.
	entries, err := os.ReadDir(svc.cfg.Durability.Dir)
	if err != nil {
		t.Fatal(err)
	}
	segments := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segments++
		}
	}
	fs.okOpens.Store(int64(segments / 2))
	fs.armed.Store(true)
	resp, err := http.Get(srv.URL + "/v1/history/range")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err == nil {
		t.Fatalf("history with a failing segment: %d, %d bytes, read error %v; want 200 and a failed read", resp.StatusCode, len(body), err)
	}
	if !strings.HasPrefix(whole, string(body)) || len(body) < 32<<10 {
		t.Fatalf("the cut response's %d bytes are not a prefix of the whole past the first flush", len(body))
	}
}
