package server

// The request scratch: every route that reads a body or writes rows or
// JSON takes one from a single pool, and its body buffer is safe to
// reuse only because nothing a parse returns is a view of it. These
// tests pin that, race the routes over the pool, and hold a warm
// /v1/clean to an allocation bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/simulate"
	"sidq/internal/store"
	"sidq/internal/trajectory"
)

// heavyCleanBody is a /v1/clean body whose plan runs every stage: the
// trajectories of core's dirtyDataset (three random walks, noised, with
// outliers, dropped samples and exact duplicates), ids led by prefix.
func heavyCleanBody(t testing.TB, prefix string, seed int64) []byte {
	return heavyWalks(t, prefix, seed, 600)
}

// heavyWalks is heavyCleanBody with walks of n fixes.
func heavyWalks(t testing.TB, prefix string, seed int64, n int) []byte {
	t.Helper()
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	var trs []*trajectory.Trajectory
	for i := 0; i < 3; i++ {
		truth := simulate.RandomWalk(fmt.Sprintf("%s%d", prefix, i), region, n, 2, 1, seed+int64(i))
		dirty := simulate.AddGaussianNoise(truth, 6, seed+20+int64(i))
		dirty, _ = simulate.InjectOutliers(dirty, 0.03, 120, seed+30+int64(i))
		dirty = simulate.DropSamples(dirty, 0.2, seed+40+int64(i))
		dirty = simulate.DuplicateSamples(dirty, 0.1, seed+10+int64(i))
		trs = append(trs, dirty)
	}
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cleanRequest is a /v1/clean request for body, built by hand so that a
// measurement counts the service's allocations, not httptest's.
func cleanRequest(u *url.URL, body []byte) *http.Request {
	return &http.Request{
		Method: http.MethodPost, URL: u, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}
}

// TestBodyPoolKeepsNoViewOfABody parses a /v1/clean body, then reads a
// second body of equal length into the same scratch's buffer: the
// first dataset's ids and points, and the text of a malformed body's
// error, must survive it. (A response cannot show this: the first
// request has written its answer before the second reads.) An id the
// grouper failed to clone would read as the second body's.
func TestBodyPoolKeepsNoViewOfABody(t *testing.T) {
	u, _ := url.Parse("/v1/clean?maxspeed=10")
	first, second := heavyCleanBody(t, "alpha-", 1), heavyCleanBody(t, "bravo-", 1)
	if len(first) != len(second) {
		t.Fatalf("bodies of %d and %d bytes: the second must cover the first", len(first), len(second))
	}
	want, err := trajectory.ParseCSV(first)
	if err != nil {
		t.Fatal(err)
	}
	// reread reads body into sc's buffer, over what it held, and parses
	// nothing.
	reread := func(sc *scratch, body []byte) {
		t.Helper()
		if err := sc.parseBody(cleanRequest(u, body), func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	sc := new(scratch)
	ds, err := sc.trajectoryDataset(cleanRequest(u, first))
	if err != nil {
		t.Fatal(err)
	}
	reread(sc, second)
	if len(ds.Trajectories) != len(want) {
		t.Fatalf("%d trajectories, want %d", len(ds.Trajectories), len(want))
	}
	for i, tr := range ds.Trajectories {
		if tr.ID != want[i].ID || !samePoints(tr.Points, want[i].Points) {
			t.Fatalf("trajectory %d reads %q after the buffer was reused, want %q", i, tr.ID, want[i].ID)
		}
	}

	sc = new(scratch)
	_, err = sc.trajectoryDataset(cleanRequest(u, []byte("id,t,x,y\nveh-A,zzz,2,3\n")))
	if err == nil {
		t.Fatal("a malformed body parsed")
	}
	msg := err.Error()
	reread(sc, []byte("id,t,x,y\nveh-B,777,2,3\n"))
	if err.Error() != msg || !strings.Contains(msg, `bad t "zzz"`) {
		t.Fatalf("the error read %q, then %q after the buffer was reused", msg, err.Error())
	}
}

func samePoints(a, b []trajectory.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBodyPoolHammer runs every route that takes a request scratch
// from many goroutines at once, so one scratch goes from route to route
// while earlier requests' answers are still in use: /v1/clean and
// /v1/assess, /v1/stream/ingest with its session's /results drained as
// CSV halfway and as ndjson at the end, and /v1/history/range as ndjson
// and as CSV. Every answer must equal its serial answer byte for byte,
// clean stages included. The history windows hold only chunks loaded
// before the hammer, at x < 0, where no concurrent ingest lands.
func TestBodyPoolHammer(t *testing.T) {
	var cleanBodies [][]byte
	for k := 0; k < 4; k++ {
		cleanBodies = append(cleanBodies, heavyCleanBody(t, fmt.Sprintf("c%d-veh-", k), int64(1+k)))
	}
	const workers, chunks = 4, 12
	chunkOf := func(w, c int) string { return gridChunk(fmt.Sprintf("w%d-", w), c, 4, 8) }
	historyQueries := []string{
		"/v1/history/range?maxx=-1",
		"/v1/history/range?maxx=-1&format=csv",
		"/v1/history/range?maxx=-1&mint=20&maxt=40",
		"/v1/history/range?maxx=-1&mint=20&maxt=40&format=csv",
	}

	type answer struct {
		status int
		stages string
		body   string
	}
	serve := func(svc *Service, method, target string, body []byte) answer {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return answer{rec.Code, rec.Header().Get("X-Sidq-Stages"), rec.Body.String()}
	}
	batch := func(svc *Service, body []byte) [2]answer {
		return [2]answer{
			serve(svc, http.MethodPost, "/v1/clean?maxspeed=10", body),
			serve(svc, http.MethodPost, "/v1/assess?maxspeed=10", body),
		}
	}
	history := func(svc *Service) (got []answer) {
		for _, q := range historyQueries {
			got = append(got, serve(svc, http.MethodGet, q, nil))
		}
		return got
	}
	// ingestAll feeds worker w's chunks to a fresh session and returns
	// each ack, then the CSV drained halfway and the ndjson flushed at
	// the end. It reports failure as an error, not through t, because
	// the hammer calls it off the test goroutine.
	ingestAll := func(srv *httptest.Server, w int) (acks []string, results string, err error) {
		do := func(method, target string, body io.Reader) (int, string, error) {
			req, err := http.NewRequest(method, srv.URL+target, body)
			if err != nil {
				return 0, "", err
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return 0, "", err
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			return resp.StatusCode, string(b), err
		}
		status, opened, err := do(http.MethodPost, "/v1/stream/open", nil)
		var out struct{ Session string }
		if err == nil && (status != http.StatusCreated || json.Unmarshal([]byte(opened), &out) != nil || out.Session == "") {
			err = fmt.Errorf("open: %d %s", status, opened)
		}
		if err != nil {
			return nil, "", err
		}
		id := out.Session
		var drained []string
		drain := func(query string) error {
			status, got, err := do(http.MethodGet, "/v1/stream/"+id+"/results?"+query, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("results?%s: %d %s", query, status, got)
			}
			drained = append(drained, got)
			return err
		}
		for c := 0; c < chunks; c++ {
			status, ack, err := do(http.MethodPost, fmt.Sprintf("/v1/stream/ingest?session=%s&seq=%d", id, c+1), strings.NewReader(chunkOf(w, c)))
			if err != nil {
				return nil, "", err
			}
			acks = append(acks, fmt.Sprintf("%d %s", status, strings.ReplaceAll(ack, id, "SESSION")))
			if c == chunks/2 {
				if err := drain("format=csv"); err != nil {
					return nil, "", err
				}
			}
		}
		err = drain("flush=1")
		return acks, strings.Join(drained, "---\n"), err
	}
	// open starts a durable service holding the history chunks.
	open := func() (*Service, *httptest.Server) {
		svc, err := OpenService(Config{Logger: DiscardLogger(), Durability: DurabilityConfig{Dir: t.TempDir(), Fsync: store.FsyncOff}})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc)
		loader := openStream(t, srv, "lateness=0")
		for c := 0; c < 6; c++ {
			var b strings.Builder
			for i := 0; i < 8; i++ {
				for s, tm := 0, c*8+i; s < 4; s++ {
					fmt.Fprintf(&b, "hist-%02d,%d,%d,%d\n", s, tm, -1000-2*tm, 10*s)
				}
			}
			if _, resp := ingestChunk(t, srv, loader, b.String()); resp.StatusCode != http.StatusOK {
				t.Fatalf("history chunk %d: status %d", c, resp.StatusCode)
			}
		}
		return svc, srv
	}

	serial, serialSrv := open()
	defer serial.Close()
	defer serialSrv.Close()
	wantBatch := make([][2]answer, len(cleanBodies))
	for k, b := range cleanBodies {
		if wantBatch[k] = batch(serial, b); wantBatch[k][0].status != http.StatusOK || wantBatch[k][1].status != http.StatusOK {
			t.Fatalf("serial clean and assess %d: status %d, %d", k, wantBatch[k][0].status, wantBatch[k][1].status)
		}
	}
	wantHistory := history(serial)
	for i, a := range wantHistory {
		if a.status != http.StatusOK || !strings.Contains(a.body, "hist-03") {
			t.Fatalf("serial %s: status %d, no row of the last source: %.200s", historyQueries[i], a.status, a.body)
		}
	}
	wantAcks := make([][]string, workers)
	wantResults := make([]string, workers)
	for w := 0; w < workers; w++ {
		var err error
		if wantAcks[w], wantResults[w], err = ingestAll(serialSrv, w); err != nil {
			t.Fatalf("serial ingest %d: %v", w, err)
		}
		for _, row := range []string{fmt.Sprintf("\nw%d-03,", w), fmt.Sprintf(`"source":"w%d-03"`, w)} {
			if !strings.Contains(wantResults[w], row) {
				t.Fatalf("serial ingest %d: no drain holds %s: %.200s", w, row, wantResults[w])
			}
		}
	}

	svc, srv := open()
	defer svc.Close()
	defer srv.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func(w int) { // a cleaning and assessing client
			defer wg.Done()
			for r := 0; r < 6; r++ {
				k := (w + r) % len(cleanBodies)
				if got := batch(svc, cleanBodies[k]); got != wantBatch[k] {
					for i, route := range []string{"clean", "assess"} {
						g, want := got[i], wantBatch[k][i]
						if g != want {
							t.Errorf("worker %d, %s of body %d: status %d, stages %q, %d bytes; serially %d, %q, %d bytes",
								w, route, k, g.status, g.stages, len(g.body), want.status, want.stages, len(want.body))
						}
					}
					return
				}
			}
		}(w)
		go func(w int) { // an ingesting client
			defer wg.Done()
			acks, results, err := ingestAll(srv, w)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if strings.Join(acks, "\n") != strings.Join(wantAcks[w], "\n") || results != wantResults[w] {
				t.Errorf("worker %d: acks or results differ from the serial run:\n%s\n---\n%s", w, strings.Join(acks, "\n"), strings.Join(wantAcks[w], "\n"))
			}
		}(w)
		go func(w int) { // a history client
			defer wg.Done()
			for r := 0; r < 6; r++ {
				for i, got := range history(svc) {
					if want := wantHistory[i]; got != want {
						t.Errorf("worker %d round %d, %s: status %d, %d bytes; serially %d, %d bytes",
							w, r, historyQueries[i], got.status, len(got.body), want.status, len(want.body))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCleanWarmAllocs holds a warm /v1/clean of the heavy body to an
// allocation bound, in allocations and in bytes. The body, the
// grouper with its slab of parsed points, the grouper's rows, the
// runner's two point buffers and the row slab come from pools, and each
// trajectory goes through every stage in the point buffers and is
// written as it leaves the last one, so what is left is the ids, the
// planner's assessment and the stage bookkeeping. Before the pools the
// same request made 215 allocations of 510 kB; with them 148 of 192 kB;
// cleaned and written a trajectory at a time, 106 of 47 kB; with the
// parsed points pooled and the runner's series names formatted once,
// 72 of 5.8 kB; with its two query parameters read without url.Values,
// 66 of 5.0 kB. The count's bound is what is measured,
// the bytes' about twice it: MemStats counts the whole process.
func TestCleanWarmAllocs(t *testing.T) {
	const allocBound, byteBound = 66, 12 << 10
	svc := newTestService(Config{})
	defer svc.Close()
	body := heavyCleanBody(t, "veh-", 1)
	allocs, perOp, _ := warmCleanCost(t, svc, body)
	t.Logf("warm /v1/clean of the heavy body (%d bytes): %.0f allocations, %d bytes", len(body), allocs, perOp)
	if israce.Enabled {
		return // sync.Pool drops items under the race detector by design
	}
	if allocs > allocBound {
		t.Errorf("warm /v1/clean makes %.0f allocations, bound %d", allocs, allocBound)
	}
	if perOp > byteBound {
		t.Errorf("warm /v1/clean allocates %d bytes, bound %d", perOp, byteBound)
	}
}
