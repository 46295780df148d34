package server

// Regression tests for the correctness fixes riding along with the
// streaming subsystem: typed 413 detection, the mid-stream
// write-failure counter, the bounded resample behind /v1/clean,
// query-string validation ahead of the ingest body, the optional-header
// rule of an ingest chunk, the one-buffer body read, and the NaN stamp
// /v1/clean's smoother steps over.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// The body cap must be detected by error type alone. A wrapped
// *http.MaxBytesError — however deep the %w chain — is a 413; an error
// whose *message* merely resembles the cap (a coincidental or
// translated "request body too large" from a parser) must stay a 400.
func TestBodyErrorTypedDetection(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"direct max-bytes", &http.MaxBytesError{Limit: 64}, http.StatusRequestEntityTooLarge},
		{
			"wrapped max-bytes",
			fmt.Errorf("parse trajectory csv: %w", fmt.Errorf("record on line 3: %w", &http.MaxBytesError{Limit: 64})),
			http.StatusRequestEntityTooLarge,
		},
		{
			"coincidental message",
			fmt.Errorf("parse readings csv: http: request body too large"),
			http.StatusBadRequest,
		},
		{"plain parse failure", fmt.Errorf("parse trajectory csv: bad row"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		bodyError(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

// A mid-stream response write failure must bump the counter and log
// one line carrying the request ID, so truncated responses are visible
// in both the scrape and the logs.
func TestWriteErrorCountedAndLogged(t *testing.T) {
	var logBuf strings.Builder
	svc := NewService(Config{Logger: log.New(&logBuf, "", 0)})
	defer svc.Close()

	before := svc.metrics.Counter(mWriteErrs).Value()
	req := httptest.NewRequest(http.MethodPost, "/v1/clean", nil)
	req = req.WithContext(context.WithValue(req.Context(), requestIDKey{}, "req-test-42"))
	svc.writeError(req, fmt.Errorf("write tcp: broken pipe"))

	if got := svc.metrics.Counter(mWriteErrs).Value(); got != before+1 {
		t.Fatalf("%s = %d, want %d", mWriteErrs, got, before+1)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "req-test-42") || !strings.Contains(logged, "broken pipe") {
		t.Fatalf("log line missing request id or cause: %q", logged)
	}
}

// A tiny ?interval= must not turn a 30-byte body into gigabytes: the
// planner schedules interpolation-impute for the sparse trajectory, and
// the resample it runs is bounded by trajectory.MaxResamplePoints. The
// over-dense trajectory is returned as it arrived, promptly, with a
// 2xx — before the fix this request allocated 3.5 GB over 31 s and
// answered 503 from the timeout middleware.
func TestCleanTinyIntervalIsBounded(t *testing.T) {
	svc := NewService(Config{Logger: DiscardLogger(), RequestTimeout: time.Minute})
	defer svc.Close()

	for _, interval := range []string{"0.0001", "1e-300"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/clean?interval="+interval,
			strings.NewReader("id,t,x,y\na,0,0,0\na,1000,10,10\n"))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		svc.ServeHTTP(rec, req)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		if rec.Code < 200 || rec.Code > 299 {
			t.Fatalf("interval=%s: status %d, want 2xx; body %q", interval, rec.Code, rec.Body.String())
		}
		if st := rec.Header().Get("X-Sidq-Stages"); !strings.Contains(st, "interpolation-impute") {
			t.Fatalf("interval=%s: impute stage not planned (%q); the test no longer reaches Resample", interval, st)
		}
		if elapsed > time.Second {
			t.Fatalf("interval=%s: answered in %v, want well under a second", interval, elapsed)
		}
		// One maximal resample is MaxResamplePoints 24-byte points; the
		// refused one must cost far less than even that.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(24*trajectory.MaxResamplePoints); alloc > bound {
			t.Fatalf("interval=%s: allocated %d bytes, want <= %d", interval, alloc, bound)
		}
		if body := rec.Body.String(); !strings.Contains(body, "a,0,0,0") || !strings.Contains(body, "a,1000,10,10") {
			t.Fatalf("interval=%s: raw points not returned: %q", interval, body)
		}
	}

	// The bound is one budget for the whole request, not one per
	// trajectory: four ids whose resamples each fit under
	// trajectory.MaxResamplePoints (199 s at 0.0002 s is 995k points)
	// must not add up to four times that. The first is imputed, the rest
	// come back as they arrived — before the fix this 11 kB body answered
	// 200 with 172 MB after 6.6 s and 2 GiB allocated.
	t.Run("many ids", func(t *testing.T) {
		var body strings.Builder
		body.WriteString("id,t,x,y\n")
		for id := 0; id < 4; id++ {
			for i := 0; i < 200; i++ {
				fmt.Fprintf(&body, "v%d,%d,%d,%d\n", id, i, 3*i, 50*id)
			}
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/clean?interval=0.0002", strings.NewReader(body.String()))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		svc.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)

		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, want 200; body %q", rec.Code, rec.Body.String())
		}
		// Assessing, encoding and buffering a resampled point costs this
		// pipeline about 350 bytes; the budget is MaxResamplePoints of them.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(512*trajectory.MaxResamplePoints); alloc > bound {
			t.Fatalf("allocated %d MiB, want <= %d MiB: the bound is per trajectory again", alloc>>20, bound>>20)
		}
		out := rec.Body.String()
		if got := strings.Count(out, "\nv0,"); got < 900_000 || got > trajectory.MaxResamplePoints {
			t.Fatalf("v0 has %d rows; the first trajectory fits the budget and must be imputed", got)
		}
		for _, id := range []string{"v1", "v2", "v3"} {
			if got := strings.Count(out, "\n"+id+","); got != 200 {
				t.Fatalf("%s has %d rows, want its 200 raw ones", id, got)
			}
		}
	})
}

// unreadBody fails the test the moment anything reads from it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the request body was read before the query string was validated")
	return 0, io.EOF
}

// A malformed ?seq= (or a missing ?session=) is answered 400 from the
// query string alone: the chunk body — up to MaxBodyBytes of CSV — is
// not read, let alone parsed, to say so.
func TestIngestValidatesQueryBeforeReadingBody(t *testing.T) {
	svc := newTestService(Config{})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	id := openStream(t, srv, "lateness=0")
	for _, query := range []string{"session=" + id + "&seq=abc", "session=" + id + "&seq=-1", "seq=3"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/stream/ingest?"+query, unreadBody{t})
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", query, rec.Code)
		}
	}
	// The same session still takes a well-formed chunk.
	if ack, resp := ingestChunkSeq(t, srv, id, 1, chunkRow("probe", 1, 2, 3)); resp.StatusCode != http.StatusOK || ack.Ingested != 1 {
		t.Fatalf("well-formed chunk after the rejects: status %d, ack %+v", resp.StatusCode, ack)
	}
}

// A chunk's header is optional, so only the exact line id,t,x,y may be
// taken for one: a source that happens to be named id used to lose its
// first row to the "first field is id" test.
func TestIngestSourceNamedIDIsNotAHeader(t *testing.T) {
	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	id := openStream(t, srv, "lateness=0&maxspeed=0")
	ack, r := ingestChunk(t, srv, id, "id,1,0,0\nid,2,1,1\nid,3,2,2\n")
	if r.StatusCode != http.StatusOK || ack.Ingested != 3 {
		t.Fatalf("header-less chunk of source \"id\": status %d, ingested %d, want 200 and 3", r.StatusCode, ack.Ingested)
	}
	ack, r = ingestChunk(t, srv, id, "id,t,x,y\nid,4,3,3\n")
	if r.StatusCode != http.StatusOK || ack.Ingested != 1 {
		t.Fatalf("chunk led by the header: status %d, ingested %d, want 200 and 1", r.StatusCode, ack.Ingested)
	}
	// Any other first row is data, and this one does not parse.
	if _, r = ingestChunk(t, srv, id, "id,time,lon,lat\nid,5,4,4\n"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("chunk led by id,time,lon,lat: status %d, want 400", r.StatusCode)
	}
	body, _ := drainStream(t, srv, id, "flush=1&format=csv")
	if want := "id,t,x,y\nid,1,0,0\nid,2,1,1\nid,3,2,2\nid,4,3,3\n"; body != want {
		t.Fatalf("drained %q, want %q", body, want)
	}
}

// The events of a parsed chunk outlive the request body, so they must
// not hold views of it.
func TestParsePointChunkKeepsNoReferenceToBody(t *testing.T) {
	body := []byte("veh-0,1,0,0\nveh-1,1,5,5\nveh-0,2,1,1\n")
	events, err := parsePointChunk(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	if len(events) != 3 || events[0].Value.Src != "veh-0" || events[1].Value.Src != "veh-1" || events[2].Value.Src != "veh-0" {
		t.Fatalf("events after the body was overwritten: %+v", events)
	}
}

// parseBody sizes a fresh scratch's buffer from Content-Length, trusts
// a large one only up to maxBodyPrealloc, and still reads a body of
// unknown length whole. Bytes.Buffer rounds a capacity up to the
// allocator's size class, at most a quarter over.
func TestReadBodySizing(t *testing.T) {
	payload := bytes.Repeat([]byte("veh-0,1,0,0\n"), 1000)
	read := func(declare int64) (got []byte, capacity int, err error) {
		req := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(bytes.NewReader(payload)))
		req.ContentLength = declare
		err = new(scratch).parseBody(req, func(body []byte) error {
			got, capacity = append([]byte(nil), body...), cap(body)
			return nil
		})
		return got, capacity, err
	}
	for _, tc := range []struct {
		name    string
		declare int64
		wantCap int
	}{
		{"declared", int64(len(payload)), len(payload) + bytes.MinRead},
		{"unknown", -1, 0},
	} {
		got, capacity, err := read(tc.declare)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: read %d bytes, err %v", tc.name, len(got), err)
		}
		if tc.wantCap > 0 && (capacity < tc.wantCap || capacity > tc.wantCap*5/4) {
			t.Fatalf("%s: buffer capacity %d, want %d (one allocation, no growth)", tc.name, capacity, tc.wantCap)
		}
	}
	// A lie: the buffer must follow the bytes, not the header.
	if got, capacity, err := read(1 << 40); err != nil || !bytes.Equal(got, payload) || capacity > (maxBodyPrealloc+bytes.MinRead)*5/4 {
		t.Fatalf("overstated length: read %d bytes into capacity %d, err %v", len(got), capacity, err)
	}
}

// A 400 names the parameter and what it wanted. Every message used to
// end "want a positive number" — for format=xml, for lanes=65 (positive;
// the range is 1–64), for seq=-1 and lateness=-1 (zero is fine), for
// minx=abc (negative coordinates are fine).
func TestParamErrorsSayWhatWasWanted(t *testing.T) {
	svc, err := OpenService(Config{Logger: DiscardLogger(), Durability: DurabilityConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	id := openStream(t, srv, "")
	for _, tc := range []struct{ method, target, want string }{
		{http.MethodGet, "/v1/stream/" + id + "/results?format=xml", `invalid query parameter format="xml": want ndjson or csv`},
		{http.MethodGet, "/v1/history/range?format=xml", `invalid query parameter format="xml": want ndjson or csv`},
		{http.MethodPost, "/v1/stream/open?lanes=65", `invalid query parameter lanes="65": want an integer in [1, 64]`},
		{http.MethodPost, "/v1/stream/open?lanes=0", `invalid query parameter lanes="0": want an integer in [1, 64]`},
		{http.MethodPost, "/v1/stream/open?lateness=-1", `invalid query parameter lateness="-1": want a number ≥ 0`},
		{http.MethodPost, "/v1/stream/ingest?session=" + id + "&seq=-1", `invalid query parameter seq="-1": want a non-negative integer`},
		{http.MethodGet, "/v1/history/range?minx=abc", `invalid query parameter minx="abc": want a number`},
		{http.MethodPost, "/v1/clean?maxspeed=0", `invalid query parameter maxspeed="0": want a positive number`},
		{http.MethodPost, "/v1/assess?interval=-2", `invalid query parameter interval="-2": want a positive number`},
	} {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader("id,t,x,y\na,1,2,3\n")))
		if got := strings.TrimSpace(rec.Body.String()); rec.Code != http.StatusBadRequest || got != tc.want {
			t.Errorf("%s %s: %d %q, want 400 %q", tc.method, tc.target, rec.Code, got, tc.want)
		}
	}
}

// One NaN timestamp is a missing step for the smoother, not a poison:
// a body of three 200-point trajectories with one a,NaN,... row used
// to come back with most of a's positions NaN. Every returned position
// is finite, and every other row is what the body without that row
// gives — a's too, since the smoother and its noise estimate read the
// row as absent.
func TestCleanNaNTimestampIsAMissingStep(t *testing.T) {
	svc := NewService(Config{Logger: DiscardLogger(), RequestTimeout: time.Minute})
	defer svc.Close()
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	var rows []string
	for k, id := range []string{"a", "b", "c"} {
		truth := simulate.RandomWalk(id, region, 200, 2, 1, int64(11+k))
		dirty, _ := simulate.InjectOutliers(simulate.AddGaussianNoise(truth, 8, int64(21+k)), 0.05, 120, int64(31+k))
		var buf bytes.Buffer
		if err := trajectory.WriteCSV(&buf, []*trajectory.Trajectory{dirty}); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")[1:]...)
	}
	const nan = 99 // the body's 100th row, one of a's
	fields := strings.Split(rows[nan], ",")
	fields[1] = "NaN"
	nanRow := strings.Join(fields, ",")
	clean := func(rows []string) (stages string, out []string) {
		t.Helper()
		body := "id,t,x,y\n" + strings.Join(rows, "\n") + "\n"
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Header().Get("X-Sidq-Stages"), strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")[1:]
	}
	stages, got := clean(append(append(append([]string(nil), rows[:nan]...), nanRow), rows[nan+1:]...))
	wantStages, want := clean(append(append([]string(nil), rows[:nan]...), rows[nan+1:]...))
	if !strings.Contains(stages, "kalman-smoothing") || stages != wantStages {
		t.Fatalf("stages %q, and %q without the NaN row: the test no longer reaches the smoother", stages, wantStages)
	}
	var kept []string
	for _, row := range got {
		f := strings.Split(row, ",")
		for _, v := range f[2:] {
			if x, err := strconv.ParseFloat(v, 64); err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("row %q: position is not finite", row)
			}
		}
		if f[1] != "NaN" {
			kept = append(kept, row)
		}
	}
	if strings.Join(kept, "\n") != strings.Join(want, "\n") {
		t.Fatalf("the rows with a finite stamp differ from the body without the NaN row")
	}
}
