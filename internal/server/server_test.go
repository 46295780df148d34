package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

func trajectoryCSV(t *testing.T) *bytes.Buffer {
	t.Helper()
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	truth := simulate.RandomWalk("veh-0", region, 300, 2, 1, 1)
	dirty := simulate.AddGaussianNoise(truth, 8, 2)
	dirty, _ = simulate.InjectOutliers(dirty, 0.05, 120, 3)
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, []*trajectory.Trajectory{dirty}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func readingsCSV(t *testing.T) *bytes.Buffer {
	t.Helper()
	f := simulate.NewField(simulate.FieldOptions{Seed: 4})
	_, rs := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: 15, Interval: 300, Duration: 3600, NoiseSigma: 1, Seed: 5,
	})
	rs, _ = simulate.InjectValueOutliers(rs, 0.05, 60, 6)
	var buf bytes.Buffer
	if err := stid.WriteCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestHealthAndTaxonomy(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/v1/taxonomy")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("taxonomy: %v", err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), "pre-processing layer") {
		t.Fatal("taxonomy content missing")
	}
}

func TestAssessEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/assess?maxspeed=10", "text/csv", trajectoryCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Trajectories int                `json:"trajectories"`
		Assessment   map[string]float64 `json:"assessment"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trajectories != 1 {
		t.Fatalf("trajectories = %d", out.Trajectories)
	}
	if out.Assessment["consistency"] >= 0.99 {
		t.Fatalf("dirty data assessed clean: %v", out.Assessment)
	}
	if out.Assessment["data_volume"] <= 0 {
		t.Fatal("no volume")
	}
}

// A NaN or infinite field in a row can make a dimension non-finite,
// which JSON has no number for: the answer is still a JSON document,
// with null for that dimension — never a 200 with nothing in it.
func TestAssessNonFiniteInputAnswersJSON(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	for _, tc := range []struct{ path, body string }{
		{"/v1/assess", "id,t,x,y\na,NaN,0,0\na,1,1,1\n"},
		{"/v1/assess", "id,t,x,y\na,0,0,0\na,1,1,1\na,Inf,2,2\n"},
		{"/v1/readings/assess", "sensor,t,x,y,value\ns1,NaN,0,0,1\ns1,1,0,0,2\n"},
	} {
		resp, err := http.Post(srv.URL+tc.path, "text/csv", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s %q: status %d, content type %q", tc.path, tc.body, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var out struct {
			Assessment map[string]*float64 `json:"assessment"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %q: body %q is not JSON: %v", tc.path, tc.body, raw, err)
		}
		nulls := 0
		for _, v := range out.Assessment {
			if v == nil {
				nulls++
			}
		}
		if nulls == 0 || nulls == len(out.Assessment) {
			t.Fatalf("%s %q: %d of %d dimensions null, want some but not all: %s", tc.path, tc.body, nulls, len(out.Assessment), raw)
		}
	}
}

func TestCleanEndpointImprovesData(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/clean?maxspeed=10", "text/csv", trajectoryCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	stages := resp.Header.Get("X-Sidq-Stages")
	if !strings.Contains(stages, "outlier-removal") {
		t.Fatalf("stages = %q", stages)
	}
	trs, err := trajectory.ReadCSVColumns(resp.Body)
	if err != nil || len(trs) != 1 {
		t.Fatalf("cleaned csv: %v (%d)", err, len(trs))
	}
	// Re-assess the cleaned output through the service.
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL+"/v1/assess?maxspeed=10", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out struct {
		Assessment map[string]float64 `json:"assessment"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Assessment["consistency"] < 0.99 {
		t.Fatalf("cleaned consistency = %v", out.Assessment["consistency"])
	}
}

func TestReadingsEndpoints(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/readings/assess", "text/csv", readingsCSV(t))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("assess: %v %v", err, resp.StatusCode)
	}
	var out struct {
		Readings   int                `json:"readings"`
		Assessment map[string]float64 `json:"assessment"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Readings == 0 || out.Assessment["consistency"] >= 0.999 {
		t.Fatalf("assess result: %+v", out)
	}
	resp, err = http.Post(srv.URL+"/v1/readings/clean", "text/csv", readingsCSV(t))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("clean: %v", err)
	}
	if got := resp.Header.Get("X-Sidq-Stages"); got != "deduplicate,thematic-repair" {
		t.Fatalf("X-Sidq-Stages = %q, want the fixed readings stages", got)
	}
	cleaned, err := stid.ReadCSV(resp.Body)
	resp.Body.Close()
	if err != nil || len(cleaned) == 0 {
		t.Fatalf("cleaned readings: %v (%d)", err, len(cleaned))
	}
}

func TestBadRequests(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	// Wrong method.
	resp, _ := http.Get(srv.URL + "/v1/clean")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET clean status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Garbage body.
	resp, _ = http.Post(srv.URL+"/v1/assess", "text/csv", strings.NewReader("not,a,csv"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/v1/readings/assess", "text/csv", strings.NewReader("x"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage readings status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad query params are a client error naming the parameter, not a
	// silent fall-back to defaults.
	for _, q := range []string{"maxspeed=banana", "maxspeed=-3", "maxspeed=NaN", "interval=0"} {
		resp, _ = http.Post(srv.URL+"/v1/assess?"+q, "text/csv", trajectoryCSV(t))
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad param %q status %d", q, resp.StatusCode)
		}
		key := strings.SplitN(q, "=", 2)[0]
		if !strings.Contains(string(body), key) {
			t.Fatalf("bad param %q error does not name the parameter: %q", q, body)
		}
	}
	// Empty/absent params still take the documented defaults.
	resp, _ = http.Post(srv.URL+"/v1/assess?maxspeed=", "text/csv", trajectoryCSV(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty param status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func newTestService(cfg Config) *Service {
	cfg.Logger = DiscardLogger()
	return NewService(cfg)
}

func TestReadyz(t *testing.T) {
	svc := newTestService(Config{})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while ready: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	svc.SetReady(false)
	resp, err = http.Get(srv.URL + "/v1/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	// Liveness is unaffected by draining.
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestOversizedBodyRejected(t *testing.T) {
	svc := newTestService(Config{MaxBodyBytes: 64})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	big := strings.Repeat("veh-0,0,1,2\n", 100)
	// Known Content-Length over the cap: rejected before reading.
	resp, err := http.Post(srv.URL+"/v1/assess", "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("content-length cap status = %d", resp.StatusCode)
	}
	// Chunked body (unknown length): the MaxBytesReader trips mid-parse.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/assess", io.LimitReader(neverEnding('a'), 10_000))
	req.Header.Set("Content-Type", "text/csv")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chunked cap status = %d", resp.StatusCode)
	}
	// A small request still works.
	resp, err = http.Post(srv.URL+"/v1/assess", "text/csv", strings.NewReader("id,t,x,y\nveh-0,0,1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body status = %d", resp.StatusCode)
	}
}

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

func TestConcurrencyLimitSheds503(t *testing.T) {
	svc := newTestService(Config{MaxInFlight: 1})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Occupy the single slot with a request whose body never finishes.
	pr, pw := io.Pipe()
	defer pw.Close() // before srv.Close, which waits for this request: a failure below must fail, not hang
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/assess", pr)
	req.Header.Set("Content-Type", "text/csv")
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte("id,t,x,y\nveh-0,0,1,2\n")); err != nil {
		t.Fatal(err)
	}
	// Wait for the slot to actually be taken. The held request must own
	// it before the first probe goes out: a probe that won the slot would
	// get the held request shed instead, and the server cannot deliver
	// that 503 while the request's body is still open.
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := http.Post(srv.URL+"/v1/assess", "text/csv", strings.NewReader("id,t,x,y\nveh-0,0,1,2\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("limiter never engaged (last status %d)", resp.StatusCode)
		}
	}
	// Probes bypass the limiter even at full capacity.
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	pw.Close()
	<-firstDone
	// Slot released: traffic flows again.
	resp, err = http.Post(srv.URL+"/v1/assess", "text/csv", strings.NewReader("id,t,x,y\nveh-0,0,1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d", resp.StatusCode)
	}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	srv := httptest.NewServer(newTestService(Config{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID assigned")
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Fatalf("inbound id not honoured: %q", got)
	}
}

// TestPanicRecoveryMiddleware: a handler panic before the first
// response byte is a 500 on a connection that survives it; after the
// first byte the status cannot change, so the response is cut and the
// client's read fails rather than ending cleanly. Both are counted.
func TestPanicRecoveryMiddleware(t *testing.T) {
	svc := newTestService(Config{})
	h := svc.withRequestID(svc.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/started" {
			io.WriteString(w, "the first rows\n")
			if err := http.NewResponseController(w).Flush(); err != nil {
				t.Errorf("flush through the recorder: %v", err)
			}
		}
		panic("handler exploded")
	})))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/anything")
	if err != nil {
		t.Fatalf("connection died on panic: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || string(body) != "internal server error\n" {
		t.Fatalf("panic before the first byte: %d %q, want 500", resp.StatusCode, body)
	}
	resp, err = http.Get(srv.URL + "/started")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err == nil || string(body) != "the first rows\n" {
		t.Fatalf("panic after the first byte: %d %q, read error %v; want the 200's first rows and a failed read", resp.StatusCode, body, err)
	}
	if n := svc.metrics.Counter(mSrvPanics).Value(); n != 2 {
		t.Fatalf("%s = %d, want 2", mSrvPanics, n)
	}
}
