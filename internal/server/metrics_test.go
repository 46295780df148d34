package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const metricsTrajCSV = "id,t,x,y\n" +
	"a,0,0,0\n" +
	"a,1,1,0\n" +
	"a,2,2,0\n" +
	"a,3,900,0\n" + // gross outlier: guarantees the planner schedules work
	"a,4,4,0\n"

func TestMetricsEndpointCoversAllFamilies(t *testing.T) {
	svc := NewService(Config{Logger: DiscardLogger()})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Drive a cleaning request so runner and server families have data.
	resp, err := http.Post(ts.URL+"/v1/clean", "text/csv", strings.NewReader(metricsTrajCSV))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(body)

	// One series from each instrumented layer: server, runner, roadnet,
	// stream — a single scrape covers the whole middleware.
	for _, want := range []string{
		`sidq_server_requests_total{route="/v1/clean",status="200"} 1`,
		`sidq_server_request_latency_ns_count{route="/v1/clean"} 1`,
		"sidq_server_in_flight 0",
		"# TYPE sidq_runner_skips_total counter",
		"sidq_runner_stage_total{",
		"# TYPE sidq_roadnet_dijkstra_total counter",
		"# TYPE sidq_stream_late_total counter",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q\n%s", want, expo)
		}
	}
}

func TestMetricsBypassesConcurrencyLimit(t *testing.T) {
	// MaxInFlight 1 with the slot artificially held: normal routes shed,
	// the scrape must still answer.
	svc := NewService(Config{Logger: DiscardLogger(), MaxInFlight: 1})
	svc.inflight <- struct{}{}
	defer func() { <-svc.inflight }()

	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics under saturation = %d, want 200", rec.Code)
	}

	rec = httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/taxonomy", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("taxonomy under saturation = %d, want 503", rec.Code)
	}
	if got := svc.Metrics().Counter(mShed).Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

func TestRouteLabelClosedSet(t *testing.T) {
	svc := NewService(Config{Logger: DiscardLogger()})
	for _, p := range []string{"/v1/unknown", "/v1/clean/x", "/evil/" + strings.Repeat("x", 200)} {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
	}
	if got := svc.Metrics().Counter(`sidq_server_requests_total{route="other",status="404"}`).Value(); got != 3 {
		t.Errorf("other-route 404 counter = %d, want 3", got)
	}
}

// TestHistoryRowCountersSplitReturnedFromFiltered: one query's rows
// land in exactly one of the two outcomes, and the store's read
// counters move by the candidate chunks alone — read amplification,
// visible from a scrape.
func TestHistoryRowCountersSplitReturnedFromFiltered(t *testing.T) {
	svc, err := OpenService(Config{Logger: DiscardLogger(), Durability: DurabilityConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	id := openStream(t, srv, "lateness=0&lanes=1")
	for c := 0; c < 5; c++ { // chunk c: four rows at t = 10c .. 10c+3, x = t
		var chunk strings.Builder
		for r := 0; r < 4; r++ {
			tm := float64(10*c + r)
			chunk.WriteString(chunkRow("probe", tm, tm, 0))
		}
		if _, resp := ingestChunk(t, srv, id, chunk.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d status %d", c, resp.StatusCode)
		}
	}
	const (
		returned = `sidq_server_history_rows_total{outcome="returned"}`
		filtered = `sidq_server_history_rows_total{outcome="filtered"}`
		frames   = "sidq_store_read_records_total"
	)
	before := map[string]uint64{}
	for _, name := range []string{returned, filtered, frames} {
		before[name] = scrapeCounter(t, srv.URL, name)
	}
	// t in [11, 21]: chunks 1 and 2 are candidates (8 rows read), rows
	// 11, 12, 13, 20, 21 are inside.
	body, hdr, code := historyGet(t, srv, "mint=11&maxt=21")
	if code != http.StatusOK || hdr.Get("X-Sidq-Chunks") != "2" || strings.Count(body, "\n") != 5 {
		t.Fatalf("status %d, %s chunks, body:\n%s", code, hdr.Get("X-Sidq-Chunks"), body)
	}
	for name, want := range map[string]uint64{returned: 5, filtered: 3, frames: 2} {
		if got := scrapeCounter(t, srv.URL, name) - before[name]; got != want {
			t.Errorf("%s moved by %d, want %d", name, got, want)
		}
	}
}
