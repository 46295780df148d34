package server

// The shared body pool: /v1/assess, /v1/clean and /v1/stream/ingest
// read their bodies into one pool of buffers, which is safe only
// because nothing a parse returns is a view of the buffer. These tests
// pin that, race the routes over the pool, and hold a warm /v1/clean
// to an allocation bound.

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

// TestBodyPoolKeepsNoViewOfABody parses two /v1/clean bodies of equal
// length back to back, so the second is read into the buffer the first
// was: the first dataset's ids and points, and the text of a malformed
// body's error, must survive it. (A response cannot show this: the
// first request has written its answer before the second reads.) An id
// the grouper failed to clone would read as the second body's.
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
	// Under -race sync.Pool drops a quarter of what it is given, so
	// one pair may not share a buffer; a few pairs do.
	for round := 0; round < 8; round++ {
		ds, _, err := trajectoryDataset(cleanRequest(u, first))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := trajectoryDataset(cleanRequest(u, second)); err != nil {
			t.Fatal(err)
		}
		if len(ds.Trajectories) != len(want) {
			t.Fatalf("%d trajectories, want %d", len(ds.Trajectories), len(want))
		}
		for i, tr := range ds.Trajectories {
			if tr.ID != want[i].ID || !samePoints(tr.Points, want[i].Points) {
				t.Fatalf("round %d: trajectory %d reads %q after the buffer was reused, want %q", round, i, tr.ID, want[i].ID)
			}
		}

		bad := []byte("id,t,x,y\nveh-A,zzz,2,3\n")
		_, _, err = trajectoryDataset(cleanRequest(u, bad))
		if err == nil {
			t.Fatal("a malformed body parsed")
		}
		msg := err.Error()
		if _, _, err := trajectoryDataset(cleanRequest(u, []byte("id,t,x,y\nveh-B,777,2,3\n"))); err != nil {
			t.Fatal(err)
		}
		if err.Error() != msg || !strings.Contains(msg, `bad t "zzz"`) {
			t.Fatalf("round %d: the error read %q, then %q after the buffer was reused", round, msg, err.Error())
		}
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

// TestBodyPoolHammer runs /v1/clean and /v1/stream/ingest requests from
// many goroutines at once, so the body pool hands one buffer from route
// to route while earlier parses' results are still in use. Every clean
// answer must equal its serial answer byte for byte, stages included,
// and every session's drained results must equal those of the same
// chunks ingested serially.
func TestBodyPoolHammer(t *testing.T) {
	var cleanBodies [][]byte
	for k := 0; k < 4; k++ {
		cleanBodies = append(cleanBodies, heavyCleanBody(t, fmt.Sprintf("c%d-veh-", k), int64(1+k)))
	}
	const workers, chunks = 4, 12
	chunkOf := func(w, c int) string { return gridChunk(fmt.Sprintf("w%d-", w), c, 4, 8) }

	type answer struct {
		status int
		stages string
		body   string
	}
	clean := func(svc *Service, body []byte) answer {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean?maxspeed=10", bytes.NewReader(body)))
		return answer{rec.Code, rec.Header().Get("X-Sidq-Stages"), rec.Body.String()}
	}
	// ingestAll feeds worker w's chunks to a fresh session and returns
	// each ack and the flushed results. It reports failure as an error,
	// not through t, because the hammer calls it off the test goroutine.
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
		for c := 0; c < chunks; c++ {
			status, ack, err := do(http.MethodPost, fmt.Sprintf("/v1/stream/ingest?session=%s&seq=%d", id, c+1), strings.NewReader(chunkOf(w, c)))
			if err != nil {
				return nil, "", err
			}
			acks = append(acks, fmt.Sprintf("%d %s", status, strings.ReplaceAll(ack, id, "SESSION")))
		}
		status, results, err = do(http.MethodGet, "/v1/stream/"+id+"/results?flush=1", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("results: %d %s", status, results)
		}
		return acks, results, err
	}

	serial := newTestService(Config{})
	defer serial.Close()
	serialSrv := httptest.NewServer(serial)
	defer serialSrv.Close()
	wantClean := make([]answer, len(cleanBodies))
	for k, b := range cleanBodies {
		if wantClean[k] = clean(serial, b); wantClean[k].status != http.StatusOK {
			t.Fatalf("serial clean %d: status %d", k, wantClean[k].status)
		}
	}
	wantAcks := make([][]string, workers)
	wantResults := make([]string, workers)
	for w := 0; w < workers; w++ {
		var err error
		if wantAcks[w], wantResults[w], err = ingestAll(serialSrv, w); err != nil {
			t.Fatalf("serial ingest %d: %v", w, err)
		}
		if !strings.Contains(wantResults[w], fmt.Sprintf(`"source":"w%d-03"`, w)) {
			t.Fatalf("serial ingest %d: the flushed results hold no row of its last source: %.200s", w, wantResults[w])
		}
	}

	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // a cleaning client
			defer wg.Done()
			for r := 0; r < 6; r++ {
				k := (w + r) % len(cleanBodies)
				if got := clean(svc, cleanBodies[k]); got != wantClean[k] {
					t.Errorf("worker %d, body %d: status %d, stages %q, %d bytes; serially %d, %q, %d bytes",
						w, k, got.status, got.stages, len(got.body), wantClean[k].status, wantClean[k].stages, len(wantClean[k].body))
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
