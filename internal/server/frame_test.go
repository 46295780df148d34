package server

// The request frame (Service.ServeHTTP): what it costs a request, the
// early answers it gives before any route runs, and its shared state
// under concurrent probes, work, a drain and panics.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sidq/internal/israce"
)

// rewindBody is a request body a measurement hands over again and
// again, so what it counts is the service's, not the test's.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// TestFrameWarmAllocs holds what the frame costs a request: a warm
// bodiless probe, and a warm ingest chunk with the drain of its rows,
// each request built once and served into a discardWriter. Left are
// the recorder, the generated id and its header value, and on the
// ingest the body cap and the read deadline's controller. With the id
// in the request's context, a context and a request copy for the
// deadline on every work request, the series names built per request
// and the access line's arguments boxed for a discarding logger, the
// probe cost 14 allocations and 648 bytes, and the pair 72 allocations
// and 3.3 kB.
func TestFrameWarmAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under the race detector by design")
	}
	const (
		probeAllocs, probeBytes = 3, 128   // 3 allocations, 96 bytes measured
		pairAllocs, pairBytes   = 40, 1536 // ingest and drain: 36 allocations, 840 bytes measured
	)
	svc := newTestService(Config{}) // the default deadline: the ingest's body takes it
	defer svc.Close()
	opened := httptest.NewRecorder()
	svc.ServeHTTP(opened, httptest.NewRequest(http.MethodPost, "/v1/stream/open?lateness=0", nil))
	var session struct{ Session string }
	if err := json.Unmarshal(opened.Body.Bytes(), &session); err != nil {
		t.Fatalf("open: %d %s", opened.Code, opened.Body)
	}
	w := &discardWriter{h: http.Header{}}
	serve := func(r *http.Request) {
		clear(w.h)
		w.status = 0
		svc.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("%s %s: status %d", r.Method, r.URL, w.status)
		}
	}
	request := func(method, target string) *http.Request {
		u, _ := url.Parse(target)
		return &http.Request{Method: method, URL: u, Header: http.Header{}, Body: http.NoBody}
	}

	probe := request(http.MethodGet, "/v1/healthz")
	pa, pb := warmCost(func() { serve(probe) })

	ingest := request(http.MethodPost, "/v1/stream/ingest?session="+session.Session)
	drain := request(http.MethodGet, "/v1/stream/"+session.Session+"/results")
	bodies := make([]string, 128) // more than warmCost's 85 runs
	for c := range bodies {
		bodies[c] = gridChunk("veh-", c, 4, 4)
	}
	chunk, c := &rewindBody{}, 0
	ia, ib := warmCost(func() {
		chunk.Reset(bodies[c])
		c++
		ingest.Body, ingest.ContentLength = chunk, chunk.Size()
		serve(ingest)
		serve(drain)
	})

	t.Logf("warm probe: %.0f allocations, %d bytes; warm ingest and drain: %.0f allocations, %d bytes", pa, pb, ia, ib)
	if pa > probeAllocs || pb > probeBytes {
		t.Errorf("a warm probe allocates %.0f times, %d bytes; want at most %d and %d", pa, pb, probeAllocs, probeBytes)
	}
	if ia > pairAllocs || ib > pairBytes {
		t.Errorf("a warm ingest and drain allocate %.0f times, %d bytes; want at most %d and %d", ia, ib, pairAllocs, pairBytes)
	}
}

// TestNewRequestIDIsSprintf: a generated id is fmt's req-%06d, byte
// for byte, at every width.
func TestNewRequestIDIsSprintf(t *testing.T) {
	for _, n := range []uint64{0, 1, 42, 99999, 999999, 1000000, 1234567, math.MaxUint64} {
		if got, want := newRequestID(n), fmt.Sprintf("req-%06d", n); got != want {
			t.Errorf("newRequestID(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestFrameEarlyAnswers: every answer the frame gives before a route
// runs — a drained request, a shed one, a body over the cap, a
// recovered panic — carries the request's id, has its access line and
// is counted under its route's label with its status.
func TestFrameEarlyAnswers(t *testing.T) {
	const assessBody = "id,t,x,y\nveh-0,0,1,2\n"
	for _, tc := range []struct {
		name         string
		cfg          Config
		setup        func(svc *Service)
		method, path string
		body         string
		status       int
		text         string
		header       [2]string // one more header the answer carries, if any
	}{
		{
			name: "drain", setup: (*Service).StartDrain,
			method: http.MethodPost, path: "/v1/assess", body: assessBody,
			status: http.StatusServiceUnavailable, text: "draining", header: [2]string{"Connection", "close"},
		},
		{
			name: "shed", cfg: Config{MaxInFlight: 1}, setup: func(svc *Service) { svc.inflight <- struct{}{} },
			method: http.MethodPost, path: "/v1/stream/ingest", body: "veh-0,0,1,2\n",
			status: http.StatusServiceUnavailable, text: "too many in-flight requests", header: [2]string{"Retry-After", "1"},
		},
		{
			name: "over the body cap", cfg: Config{MaxBodyBytes: 8},
			method: http.MethodPost, path: "/v1/clean", body: assessBody,
			status: http.StatusRequestEntityTooLarge, text: "request body too large",
		},
		{
			name: "recovered panic",
			setup: func(svc *Service) {
				svc.mux.HandleFunc("/v1/explode", func(http.ResponseWriter, *http.Request) { panic("exploded") })
			},
			method: http.MethodGet, path: "/v1/explode",
			status: http.StatusInternalServerError, text: "internal server error",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs strings.Builder
			tc.cfg.Logger = log.New(&logs, "", 0)
			svc := NewService(tc.cfg)
			defer svc.Close()
			if tc.setup != nil {
				tc.setup(svc)
			}
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))

			const id = "req-000001" // the service's first request
			if rec.Code != tc.status || rec.Body.String() != tc.text+"\n" {
				t.Errorf("answer %d %q, want %d %q", rec.Code, rec.Body, tc.status, tc.text)
			}
			if got := rec.Header().Get("X-Request-ID"); got != id {
				t.Errorf("X-Request-ID %q, want %q", got, id)
			}
			if tc.header[0] != "" && rec.Header().Get(tc.header[0]) != tc.header[1] {
				t.Errorf("%s %q, want %q", tc.header[0], rec.Header().Get(tc.header[0]), tc.header[1])
			}
			series := fmt.Sprintf(`%s{route=%q,status="%d"}`, mRequests, routeLabel(tc.path), tc.status)
			if n := svc.Metrics().Counter(series).Value(); n != 1 {
				t.Errorf("%s = %d, want 1", series, n)
			}
			if line := fmt.Sprintf("%s %s %s -> %d (", id, tc.method, tc.path, tc.status); !strings.Contains(logs.String(), line) {
				t.Errorf("access log %q has no line %q…", logs.String(), line)
			}
		})
	}
}

// TestFrameHammer sends probes, work and a panicking route from many
// clients at once, and drains the service midway. Every answer carries
// an id no other answer has; probes answer throughout; once the drain
// has begun, new work is answered 503 "draining"; and at the end every
// request is counted once, every 500 is a counted panic and no
// in-flight slot is held. Run under -race (make race-hammer) it checks
// the frame's shared state: the id sequence, the limiter, the drain
// switch and the series memo.
func TestFrameHammer(t *testing.T) {
	svc := newTestService(Config{MaxInFlight: 3})
	defer svc.Close()
	svc.mux.HandleFunc("/v1/explode", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("after") != "" {
			io.WriteString(w, "a first byte\n")
			http.NewResponseController(w).Flush()
		}
		panic("exploded")
	})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	session := openStream(t, srv, "lateness=0")

	type call struct{ method, path, body string }
	calls := []call{
		{http.MethodGet, "/v1/healthz", ""},
		{http.MethodPost, "/v1/assess", "id,t,x,y\nveh-0,0,1,2\nveh-0,1,2,3\n"},
		{http.MethodGet, "/v1/metrics", ""},
		{http.MethodPost, "/v1/stream/ingest?session=" + session, "veh-0,1,0,0\n"},
		{http.MethodGet, "/v1/explode", ""},
		{http.MethodGet, "/v1/readyz", ""},
		{http.MethodGet, "/v1/explode?after=1", ""},
		{http.MethodGet, "/v1/taxonomy", ""},
	}
	const clients, rounds = 6, 24
	var (
		sent, panics atomic.Int64
		drained      atomic.Bool
		mu           sync.Mutex
		ids          = map[string]bool{}
		wg           sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if c == 0 && i == rounds/2 {
					svc.StartDrain()
					drained.Store(true)
				}
				k := calls[(c+i)%len(calls)]
				afterDrain := drained.Load()
				req, _ := http.NewRequest(k.method, srv.URL+k.path, strings.NewReader(k.body))
				sent.Add(1)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("%s %s: %v", k.method, k.path, err)
					continue
				}
				text, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				id := resp.Header.Get("X-Request-ID")
				mu.Lock()
				dup := ids[id]
				ids[id] = true
				mu.Unlock()
				if id == "" || dup {
					t.Errorf("%s %s: X-Request-ID %q is missing or taken", k.method, k.path, id)
				}
				status := resp.StatusCode
				switch path, _, _ := strings.Cut(k.path, "?"); {
				case path == "/v1/healthz" || path == "/v1/metrics":
					if status != http.StatusOK {
						t.Errorf("%s answered %d", path, status)
					}
				case path == "/v1/readyz":
					if afterDrain && status != http.StatusServiceUnavailable || !drained.Load() && status != http.StatusOK {
						t.Errorf("readyz answered %d (drain begun before it: %v)", status, afterDrain)
					}
				case afterDrain && (status != http.StatusServiceUnavailable || string(text) != "draining\n"):
					t.Errorf("%s after the drain answered %d %q, want 503 draining", k.path, status, text)
				case status == http.StatusServiceUnavailable:
					// shed by the limiter, or drained
				case k.path == "/v1/explode":
					if status != http.StatusInternalServerError {
						t.Errorf("a panic before the first byte answered %d", status)
					}
					panics.Add(1)
				case k.path == "/v1/explode?after=1":
					if status != http.StatusOK || rerr == nil {
						t.Errorf("a panic after the first byte answered %d, read error %v; want 200 and a failed read", status, rerr)
					}
					panics.Add(1)
				case status != http.StatusOK:
					t.Errorf("%s %s answered %d %.80q", k.method, k.path, status, text)
				}
			}
		}(c)
	}
	wg.Wait()

	var counted uint64
	svc.seriesMu.RLock()
	for _, series := range svc.series {
		counted += series.total.Value()
	}
	svc.seriesMu.RUnlock()
	if want := uint64(sent.Load()) + 1; counted != want { // the open
		t.Errorf("%d requests counted, want %d", counted, want)
	}
	if n := svc.Metrics().Counter(mSrvPanics).Value(); n != uint64(panics.Load()) {
		t.Errorf("%s = %d, want the %d panics answered", mSrvPanics, n, panics.Load())
	}
	if g := svc.Metrics().Gauge(mInFlight).Value(); g != 0 || len(svc.inflight) != 0 {
		t.Errorf("in-flight gauge %d, %d slots held after the run; want none", g, len(svc.inflight))
	}
}
