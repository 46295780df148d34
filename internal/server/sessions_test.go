package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sidq/internal/geo"
	"sidq/internal/obs"
	"sidq/internal/roadnet"
	"sidq/internal/session"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// cleanWalkCSV returns noise-free random-walk trajectories serialized
// as point CSV: data that already meets the default quality targets,
// so the batch planner runs zero stages and both paths are identity
// transforms over it.
func cleanWalkCSV(t *testing.T, ids ...string) *bytes.Buffer {
	t.Helper()
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	var trs []*trajectory.Trajectory
	for i, id := range ids {
		trs = append(trs, simulate.RandomWalk(id, region, 200, 2, 1, int64(i+1)))
	}
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// The engine's series the route tests read.
const (
	mStreamOpen     = "sidq_stream_sessions_open"
	mStreamClosed   = "sidq_stream_session_closed_total"
	mStreamEvicted  = "sidq_stream_session_evicted_total"
	mStreamRejected = "sidq_stream_session_rejected_total"
)

// openStream opens a session against srv and returns its id.
func openStream(t *testing.T, srv *httptest.Server, params string) string {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/stream/open?"+params, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("open status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Session
}

func ingestChunk(t *testing.T, srv *httptest.Server, id, csvChunk string) (session.Ack, *http.Response) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/stream/ingest?session="+id, "text/csv", strings.NewReader(csvChunk))
	if err != nil {
		t.Fatal(err)
	}
	var ack session.Ack
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return ack, resp
}

// ingestChunkSeq is ingestChunk with a client retry sequence number.
func ingestChunkSeq(t *testing.T, srv *httptest.Server, id string, seq uint64, csvChunk string) (session.Ack, *http.Response) {
	t.Helper()
	return ingestChunk(t, srv, fmt.Sprintf("%s&seq=%d", id, seq), csvChunk)
}

// chunkRow builds one "id,t,x,y" row.
func chunkRow(src string, tm, x, y float64) string {
	return fmt.Sprintf("%s,%g,%g,%g\n", src, tm, x, y)
}

func historyGet(t *testing.T, srv *httptest.Server, params string) (string, http.Header, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/history/range?" + params)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body), resp.Header, resp.StatusCode
}

func drainStream(t *testing.T, srv *httptest.Server, id, params string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/stream/" + id + "/results?" + params)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body), resp
}

// The acceptance bar for the streaming path: streaming clean data
// in order and draining as CSV must reproduce POST /v1/clean on the
// same bytes exactly. The planner plans zero stages for data already
// meeting targets (asserted via X-Sidq-Stages), so both paths reduce
// to parse → regroup → serialize, and those must agree byte for byte.
func TestStreamInOrderMatchesBatchClean(t *testing.T) {
	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	input := cleanWalkCSV(t, "veh-0", "veh-1", "veh-2").String()

	resp, err := http.Post(srv.URL+"/v1/clean", "text/csv", strings.NewReader(input))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch clean: %v %v", err, resp.StatusCode)
	}
	if stages := resp.Header.Get("X-Sidq-Stages"); stages != "" {
		t.Fatalf("planner ran stages %q on clean data; equivalence premise broken", stages)
	}
	batch, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	id := openStream(t, srv, "lateness=5")
	// Feed the same CSV in several chunks, splitting on row boundaries.
	rows := strings.SplitAfter(input, "\n")
	for start := 0; start < len(rows); start += 50 {
		end := start + 50
		if end > len(rows) {
			end = len(rows)
		}
		chunk := strings.Join(rows[start:end], "")
		if strings.TrimSpace(chunk) == "" {
			continue
		}
		if _, r := ingestChunk(t, srv, id, chunk); r.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", r.StatusCode)
		}
	}
	streamed, r := drainStream(t, srv, id, "flush=1&format=csv")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", r.StatusCode)
	}
	if streamed != string(batch) {
		t.Fatalf("stream/batch mismatch:\nstream %d bytes, batch %d bytes\nstream head: %.120s\nbatch head:  %.120s",
			len(streamed), len(batch), streamed, batch)
	}
}

// Events arriving out of order, but displaced less than the lateness
// bound, must come out exactly as if the input had been sorted.
func TestStreamOutOfOrderWithinLateness(t *testing.T) {
	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	const n = 120
	type row struct {
		t, x, y float64
	}
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{t: float64(i), x: float64(i) * 2, y: 5}
	}
	// Scramble within disjoint blocks of 4: displacement is at most 3,
	// strictly inside the lateness bound of 5.
	shuffled := append([]row(nil), rows...)
	rng := rand.New(rand.NewSource(7))
	for start := 0; start < len(shuffled); start += 4 {
		end := start + 4
		if end > len(shuffled) {
			end = len(shuffled)
		}
		block := shuffled[start:end]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}

	id := openStream(t, srv, "lateness=5&maxspeed=0")
	var chunk strings.Builder
	for i, rw := range shuffled {
		fmt.Fprintf(&chunk, "veh-0,%g,%g,%g\n", rw.t, rw.x, rw.y)
		if (i+1)%40 == 0 || i == len(shuffled)-1 {
			if _, r := ingestChunk(t, srv, id, chunk.String()); r.StatusCode != http.StatusOK {
				t.Fatalf("ingest status %d", r.StatusCode)
			}
			chunk.Reset()
		}
	}
	body, r := drainStream(t, srv, id, "flush=1")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", r.StatusCode)
	}
	var got []wireRow
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var res wireRow
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if len(got) != n {
		t.Fatalf("drained %d events, want %d (late drops within the lateness bound?)", len(got), n)
	}
	for i, res := range got {
		want := rows[i]
		if res.T != want.t || res.X != want.x || res.Y != want.y {
			t.Fatalf("event %d = %+v, want sorted-input row %+v", i, res, want)
		}
	}
}

// Concurrent ingest from many clients into one session must be safe
// (run under -race) and lose nothing: everything ingested is either
// emitted or still pending at flush time.
func TestStreamConcurrentIngest(t *testing.T) {
	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	id := openStream(t, srv, "lateness=2&maxspeed=0")
	const (
		sources      = 8
		chunksPerSrc = 5
		rowsPerChunk = 20
	)
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for c := 0; c < chunksPerSrc; c++ {
				var chunk strings.Builder
				for i := 0; i < rowsPerChunk; i++ {
					tm := c*rowsPerChunk + i
					fmt.Fprintf(&chunk, "src-%d,%d,%d,%d\n", s, tm, tm*2, s)
				}
				resp, err := http.Post(srv.URL+"/v1/stream/ingest?session="+id, "text/csv", strings.NewReader(chunk.String()))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent ingest status %d", resp.StatusCode)
				}
			}
		}(s)
	}
	wg.Wait()

	body, r := drainStream(t, srv, id, "flush=1")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", r.StatusCode)
	}
	perSrc := map[string][]float64{}
	dec := json.NewDecoder(strings.NewReader(body))
	total := 0
	for dec.More() {
		var res wireRow
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		perSrc[res.Source] = append(perSrc[res.Source], res.T)
		total++
	}
	if want := sources * chunksPerSrc * rowsPerChunk; total != want {
		t.Fatalf("drained %d events, want %d", total, want)
	}
	for src, times := range perSrc {
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatalf("%s out of order at %d: %v after %v", src, i, times[i], times[i-1])
			}
		}
	}
}

// An idle session must be reclaimed by the janitor sweep and answer
// 404 afterwards, with the eviction visible in metrics and the trace.
func TestStreamIdleTTLEviction(t *testing.T) {
	sink := &obs.MemSink{}
	svc := newTestService(Config{
		Trace:  sink,
		Stream: StreamConfig{IdleTTL: time.Minute},
	})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	id := openStream(t, srv, "")
	if _, r := ingestChunk(t, srv, id, "veh-0,1,0,0\nveh-0,2,1,0\n"); r.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", r.StatusCode)
	}

	// Not yet idle long enough: the sweep must keep it.
	if n := svc.EvictIdleStreams(time.Now().Add(30 * time.Second)); n != 0 {
		t.Fatalf("early sweep evicted %d sessions", n)
	}
	// Past the TTL: reclaimed.
	if n := svc.EvictIdleStreams(time.Now().Add(150 * time.Second)); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if _, r := ingestChunk(t, srv, id, "veh-0,3,2,0\n"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest into evicted session: status %d, want 404", r.StatusCode)
	}
	if _, r := drainStream(t, srv, id, ""); r.StatusCode != http.StatusNotFound {
		t.Fatalf("drain of evicted session: status %d, want 404", r.StatusCode)
	}
	if got := svc.metrics.Counter(mStreamEvicted).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", mStreamEvicted, got)
	}
	if got := svc.metrics.Gauge(mStreamOpen).Value(); got != 0 {
		t.Fatalf("%s = %d, want 0", mStreamOpen, got)
	}
	if sink.CountName(obs.KindSessionEvict, id) != 1 {
		t.Fatalf("no %s trace event for %s: %+v", obs.KindSessionEvict, id, sink.Events())
	}
}

// The session cap sheds opens with 429 + Retry-After instead of
// accumulating unbounded per-session state.
func TestStreamSessionLimitShedding(t *testing.T) {
	sink := &obs.MemSink{}
	svc := newTestService(Config{
		Trace:  sink,
		Stream: StreamConfig{MaxSessions: 2},
	})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	openStream(t, srv, "")
	second := openStream(t, srv, "")
	resp, err := http.Post(srv.URL+"/v1/stream/open", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit open status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := svc.metrics.Counter(mStreamRejected).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", mStreamRejected, got)
	}
	if sink.Count(obs.KindSessionShed) != 1 {
		t.Fatal("no session-shed trace event")
	}

	// Closing a session frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/stream/"+second, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("close: %v %v", err, resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	openStream(t, srv, "")
}

// Full lane and result buffers shed the chunk atomically with 429: the
// rejected chunk leaves no partial state behind.
func TestStreamBackpressureShedding(t *testing.T) {
	svc := newTestService(Config{
		Stream: StreamConfig{MaxLanePending: 4, MaxResults: 6},
	})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Huge lateness: nothing releases, the lane buffer fills.
	id := openStream(t, srv, "lateness=1000000&lanes=1")
	ack, r := ingestChunk(t, srv, id, "veh-0,1,0,0\nveh-0,2,1,0\nveh-0,3,2,0\nveh-0,4,3,0\n")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fill status %d", r.StatusCode)
	}
	if ack.PendingReorder != 4 {
		t.Fatalf("pending_reorder = %d, want 4", ack.PendingReorder)
	}
	_, r = ingestChunk(t, srv, id, "veh-0,5,4,0\n")
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-buffer ingest status %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The rejected chunk must not have touched the lane.
	ack2, r := ingestChunk(t, srv, id, "")
	if r.StatusCode != http.StatusOK || ack2.PendingReorder != 4 {
		t.Fatalf("post-shed state: status %d pending %d, want 200/4", r.StatusCode, ack2.PendingReorder)
	}

	// Undrained results hit MaxResults the same way; draining recovers.
	id2 := openStream(t, srv, "lateness=0&maxspeed=0&lanes=1")
	for i := 0; i < 6; i++ {
		if _, r := ingestChunk(t, srv, id2, fmt.Sprintf("veh-0,%d,%d,0\n", i, i)); r.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d status %d", i, r.StatusCode)
		}
	}
	if _, r := ingestChunk(t, srv, id2, "veh-0,10,9,0\n"); r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-results ingest status %d, want 429", r.StatusCode)
	}
	if _, r := drainStream(t, srv, id2, ""); r.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", r.StatusCode)
	}
	if _, r := ingestChunk(t, srv, id2, "veh-0,10,9,0\n"); r.StatusCode != http.StatusOK {
		t.Fatalf("post-drain ingest status %d, want 200", r.StatusCode)
	}
}

// With a road network loaded, released points come out snapped to the
// graph with the matched edge id attached.
func TestStreamOnlineMatching(t *testing.T) {
	g := roadnet.NewGraph()
	a := g.AddNode(geo.Pt(0, 0))
	b := g.AddNode(geo.Pt(1000, 0))
	g.AddBidirectional(a, b, 15)

	svc := newTestService(Config{Stream: StreamConfig{Network: g}})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	id := openStream(t, srv, "lateness=0&maxspeed=0")
	var chunk strings.Builder
	for i := 0; i < 20; i++ {
		// Points wobbling around the edge y=0.
		fmt.Fprintf(&chunk, "veh-0,%d,%d,%g\n", i, i*10, float64(i%3)-1)
	}
	if _, r := ingestChunk(t, srv, id, chunk.String()); r.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", r.StatusCode)
	}
	body, r := drainStream(t, srv, id, "flush=1")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", r.StatusCode)
	}
	dec := json.NewDecoder(strings.NewReader(body))
	count := 0
	for dec.More() {
		var res wireRow
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Edge == nil {
			t.Fatalf("matched result without edge id: %+v", res)
		}
		if res.Y != 0 {
			t.Fatalf("point not snapped onto the edge: %+v", res)
		}
		count++
	}
	if count == 0 {
		t.Fatal("matcher emitted nothing")
	}
}

// Closing a session returns its summary and frees the id; operations
// on it afterwards are 404s.
func TestStreamCloseLifecycle(t *testing.T) {
	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	id := openStream(t, srv, "lateness=0&maxspeed=0")
	ingestChunk(t, srv, id, "veh-0,1,0,0\nveh-0,2,1,0\n")

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/stream/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("close: %v %v", err, resp.StatusCode)
	}
	var summary struct {
		Ingested int `json:"ingested"`
		Emitted  int `json:"emitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if summary.Ingested != 2 || summary.Emitted != 2 {
		t.Fatalf("summary = %+v, want 2 ingested / 2 emitted", summary)
	}

	resp, _ = http.DefaultClient.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double close status %d, want 404", resp.StatusCode)
	}
	if _, r := ingestChunk(t, srv, id, "veh-0,3,2,0\n"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest after close status %d, want 404", r.StatusCode)
	}
	if got := svc.metrics.Counter(mStreamClosed).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", mStreamClosed, got)
	}
}

// A malformed chunk is rejected whole: no prefix of it may have been
// applied, so retrying the corrected chunk cannot duplicate events.
func TestStreamMalformedChunkAtomic(t *testing.T) {
	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	id := openStream(t, srv, "lateness=0&maxspeed=0")
	for _, bad := range []string{
		"veh-0,1,0,0\nveh-0,not-a-number,1,0\n", // bad time after a good row
		"veh-0,1,0,0\nveh-0,2,NaN,0\n",          // non-finite coordinate
		",1,0,0\n",                              // empty source id
		"veh-0,1,0\n",                           // wrong field count
	} {
		if _, r := ingestChunk(t, srv, id, bad); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed chunk %q status %d, want 400", bad, r.StatusCode)
		}
	}
	ack, r := ingestChunk(t, srv, id, "veh-0,1,0,0\n")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("clean ingest status %d", r.StatusCode)
	}
	if ack.PendingResults != 1 {
		t.Fatalf("pending_results = %d, want 1: rejected chunks leaked rows", ack.PendingResults)
	}
}

// TestHistoryDisabledWithoutData: the endpoint answers 404 on a
// memory-only service.
func TestHistoryDisabledWithoutData(t *testing.T) {
	svc := newTestService(Config{})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/history/range")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
