package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// dirtyWalks is a /v1/clean body of n 600-fix random walks, ids led by
// prefix, noised by sigma with outliers at outlierRate; heavy ones also
// drop a fifth of their samples and duplicate a tenth, so that their
// plan runs every stage in one round.
func dirtyWalks(t testing.TB, prefix string, seed int64, n int, sigma, outlierRate float64, heavy bool) []byte {
	t.Helper()
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	trs := make([]*trajectory.Trajectory, n)
	for i := range trs {
		s := seed + 100*int64(i)
		dirty := simulate.AddGaussianNoise(simulate.RandomWalk(fmt.Sprintf("%s%d", prefix, i), region, 600, 2, 1, s), sigma, s+20)
		dirty, _ = simulate.InjectOutliers(dirty, outlierRate, 120, s+30)
		if heavy {
			dirty = simulate.DuplicateSamples(simulate.DropSamples(dirty, 0.2, s+40), 0.1, s+10)
		}
		trs[i] = dirty
	}
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceClean is the answer /v1/clean must give for body: the
// collecting planner run, then WriteCSV.
func referenceClean(t testing.TB, body []byte) (csv []byte, stages string) {
	t.Helper()
	trs, err := trajectory.ParseCSV(body)
	if err != nil {
		t.Fatal(err)
	}
	ds := &core.Dataset{Trajectories: trs, MaxSpeed: 10, ExpectedInterval: 1}
	out, planned, _, err := core.PlanAndRunIterativeWith(context.Background(), &core.Runner{Policy: core.SkipStage}, ds, core.DefaultTargets(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, out.Trajectories); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stageNames(planned)
}

// firstByteWriter discards a response, counting its writes and noting,
// at the first, whether the round had already ended: the runner
// observes a stage's latency once, when its round is over.
type firstByteWriter struct {
	discardWriter
	svc       *Service
	writes    int
	roundOver bool
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 1 {
		w.roundOver = w.svc.Metrics().Histogram(`sidq_runner_stage_latency_ns{stage="interpolation-impute"}`).Snapshot().Count() > 0
	}
	return w.discardWriter.Write(p)
}

// TestCleanStreamsLargeBodyInBoundedHeap is ROADMAP item 26's check. A
// body of about 31 MiB, planned in one round, is cleaned and written a
// trajectory at a time: its first byte goes out before the round's last
// trajectory is cleaned, and the heap grows by at most 2.5 times the
// body while it runs (HeapInuse sampled every 2 ms, garbage not yet
// collected included). What is left is the body's buffer, the parsed
// points and the grouper's scratch; the cleaned answer, about twice the
// body, is never held. Under -race the body is an eighth of the size
// and the heap is not measured.
func TestCleanStreamsLargeBodyInBoundedHeap(t *testing.T) {
	n := 1300
	if israce.Enabled {
		n /= 8
	}
	body := dirtyWalks(t, "veh-", 1, n, 6, 0.03, true)
	svc := newTestService(Config{}) // the default body cap, 32 MiB, admits it
	defer svc.Close()
	u, _ := url.Parse("/v1/clean?maxspeed=10")
	w := &firstByteWriter{discardWriter: discardWriter{h: http.Header{}}, svc: svc}

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		top := base.HeapInuse
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peak <- top
				return
			case <-tick.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				top = max(top, m.HeapInuse)
			}
		}
	}()
	start := time.Now()
	svc.ServeHTTP(w, cleanRequest(u, body))
	took := time.Since(start)
	close(stop)
	growth := <-peak - base.HeapInuse

	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if got := w.h.Get("X-Sidq-Stages"); strings.Count(got, ",") != 3 {
		t.Fatalf("X-Sidq-Stages %q: the body must plan all four stages in one round", got)
	}
	t.Logf("%d-byte body: %d writes in %v, heap grew by %d bytes (%.2f× the body)",
		len(body), w.writes, took, growth, float64(growth)/float64(len(body)))
	if w.writes < 2 || w.roundOver {
		t.Fatalf("first byte written after the last trajectory was cleaned (%d writes)", w.writes)
	}
	if !israce.Enabled && float64(growth) > 2.5*float64(len(body)) {
		t.Fatalf("heap grew by %d bytes, %.2f× the %d-byte body; want at most 2.5×", growth, float64(growth)/float64(len(body)), len(body))
	}
}

// deadlineCtx is a request context whose deadline passes when the test
// says so.
type deadlineCtx struct {
	context.Context
	done chan struct{}
	once sync.Once
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

func (c *deadlineCtx) pass() { c.once.Do(func() { close(c.done) }) }

// inFirstRound reports whether a goroutine is inside a CleanPoints call
// of one of stages while Runner.Run — which the planner calls for every
// round that keeps a copy for the next plan — is on a stack. buf holds
// the stack dump.
func inFirstRound(buf []byte, stages []core.Stage) bool {
	dump := buf[:runtime.Stack(buf, true)]
	if !bytes.Contains(dump, []byte("sidq/internal/core.(*Runner).Run(")) {
		return false
	}
	for _, st := range stages {
		if bytes.Contains(dump, []byte(fmt.Sprintf("sidq/internal/%T.CleanPoints(", st))) {
			return true
		}
	}
	return false
}

// twoRoundBody is a /v1/clean body that plans over two rounds, and the
// stages of its first round.
func twoRoundBody(t *testing.T) (body []byte, first []core.Stage) {
	t.Helper()
	body = dirtyWalks(t, "walk-", 50, 40, 3, 0.2, false)
	trs, err := trajectory.ParseCSV(body)
	if err != nil {
		t.Fatal(err)
	}
	ds := &core.Dataset{Trajectories: trs, MaxSpeed: 10, ExpectedInterval: 1}
	_, first, _, _ = core.PlanAndRunIterativeWith(context.Background(), nil, ds, core.DefaultTargets(), 1)
	_, all, _, _ := core.PlanAndRunIterativeWith(context.Background(), nil, ds, core.DefaultTargets(), 3)
	if len(first) == 0 || len(all) == len(first) {
		t.Fatalf("the body plans %d stages in its first round and %d in all: it must take two rounds", len(first), len(all))
	}
	return body, first
}

// cleanCutInFirstRound serves body to svc as a /v1/clean whose deadline
// passes once a goroutine is seen inside a stage of first while the
// round that keeps a copy runs, and reports whether the poll saw it
// there.
func cleanCutInFirstRound(svc *Service, body []byte, first []core.Stage) (rec *httptest.ResponseRecorder, caught bool) {
	ctx := &deadlineCtx{Context: context.Background(), done: make(chan struct{})}
	stop, polled := make(chan struct{}), make(chan bool)
	go func() {
		buf := make([]byte, 1<<20)
		for {
			select {
			case <-stop:
				polled <- false
				return
			default:
			}
			if inFirstRound(buf, first) {
				ctx.pass()
				<-stop
				polled <- true
				return
			}
			time.Sleep(100 * time.Microsecond) // a dump stops the world
		}
	}()
	rec = httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean?maxspeed=10", bytes.NewReader(body)).WithContext(ctx))
	close(stop)
	return rec, <-polled
}

// TestCleanDeadlineInCollectingRound: a deadline that passes while a
// round that keeps a copy runs — nothing written yet — answers 503
// "request timed out", and the request gives its in-flight slot back.
// The body plans over two rounds; the deadline is made to pass once a
// goroutine is seen inside a first-round stage, and an attempt counts
// when the round's first stage reports the cancellation. One whose poll
// missed the round, or passed the deadline only after it, is run again.
func TestCleanDeadlineInCollectingRound(t *testing.T) {
	body, first := twoRoundBody(t)
	for attempt := 0; ; attempt++ {
		svc := newTestService(Config{})
		rec, caught := cleanCutInFirstRound(svc, body, first)
		inFlight := svc.Metrics().Gauge(mInFlight).Value()
		cancelled := svc.Metrics().Counter(fmt.Sprintf(`sidq_runner_stage_total{stage=%q,outcome="cancelled"}`, first[0].Name())).Value()
		svc.Close()
		if !caught || cancelled == 0 {
			// The poll missed the first round, or passed the deadline
			// only after the round's last call had returned.
			if attempt == 20 {
				t.Fatal("the deadline never passed inside the first round")
			}
			continue
		}
		if rec.Code != http.StatusServiceUnavailable || strings.TrimSpace(rec.Body.String()) != timedOut {
			t.Fatalf("deadline in the first round: %d %q, want 503 %q", rec.Code, rec.Body, timedOut)
		}
		if rec.Header().Get("X-Sidq-Stages") != "" {
			t.Fatal("a 503 carries X-Sidq-Stages")
		}
		if inFlight != 0 {
			t.Fatalf("in-flight gauge %d after the request, want 0", inFlight)
		}
		return
	}
}

// smallBufListener shrinks the send buffer of every connection it
// accepts, so a response the client does not read stalls the handler
// in a write instead of landing in the kernel whole.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(64 << 10)
	}
	return c, err
}

// lockedBuffer is a log destination safe to read while the server
// writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCleanDeadlineAfterFirstByteCutsResponse: once /v1/clean has
// written its first byte, its 200 cannot change. A deadline that passes
// after it cuts the response, so the client's read of the body fails
// instead of ending cleanly short of the answer, and the access log
// still gets the request's line. The client reads the first bytes, then
// stops reading until the deadline has passed: the handler stalls in a
// write, and the next slab is refused.
func TestCleanDeadlineAfterFirstByteCutsResponse(t *testing.T) {
	const timeout = time.Second
	body := dirtyWalks(t, "veh-", 3, 130, 6, 0.03, true)
	logs := &lockedBuffer{}
	svc := NewService(Config{Logger: log.New(logs, "", 0), RequestTimeout: timeout})
	defer svc.Close()
	srv := httptest.NewUnstartedServer(svc)
	srv.Listener = smallBufListener{srv.Listener}
	srv.Start()
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(64 << 10)
		}
		return c, err
	}}}
	defer client.CloseIdleConnections()

	start := time.Now()
	resp, err := client.Post(srv.URL+"/v1/clean?maxspeed=10", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sidq-Stages") == "" {
		t.Fatalf("status %d, stages %q: want a 200 streaming its rows", resp.StatusCode, resp.Header.Get("X-Sidq-Stages"))
	}
	head := make([]byte, len(trajectory.CSVHeader))
	if _, err := io.ReadFull(resp.Body, head); err != nil || string(head) != trajectory.CSVHeader {
		t.Fatalf("first bytes %q, %v", head, err)
	}
	time.Sleep(time.Until(start.Add(timeout + 500*time.Millisecond)))
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("the body read ended cleanly after %d more bytes; want it cut", n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		got := logs.String()
		if strings.Contains(got, "POST /v1/clean -> 200") && strings.Contains(got, "clean stopped mid-response") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access-log line for the cut response:\n%s", got)
		}
	}
}

// TestCleanStreamHammer races /v1/clean streams through the runner's
// pooled point buffers, the row slabs and the body pool: every response
// must be the collecting planner's answer, byte for byte, with the same
// X-Sidq-Stages. Run under -race it is the buffer-ownership gate of the
// streaming path (make race-hammer).
func TestCleanStreamHammer(t *testing.T) {
	type want struct {
		body, csv []byte
		stages    string
	}
	var cases []want
	for i := int64(0); i < 4; i++ {
		for _, body := range [][]byte{
			dirtyWalks(t, fmt.Sprintf("h%d-", i), 10+i, 4, 6, 0.03, true), // one round, every stage
			dirtyWalks(t, fmt.Sprintf("m%d-", i), 50+i, 3, 3, 0.2, false), // two rounds
			dirtyWalks(t, fmt.Sprintf("l%d-", i), 90+i, 2, 0.5, 0, false), // nothing planned
		} {
			csv, stages := referenceClean(t, body)
			cases = append(cases, want{body, csv, stages})
		}
	}
	svc := newTestService(Config{})
	defer svc.Close()
	const workers, rounds = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := cases[(w*rounds+r)%len(cases)]
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean?maxspeed=10", bytes.NewReader(c.body)))
				if rec.Code != http.StatusOK || rec.Header().Get("X-Sidq-Stages") != c.stages || !bytes.Equal(rec.Body.Bytes(), c.csv) {
					errs <- fmt.Errorf("worker %d round %d: %d, stages %q (want %q), %d bytes (want %d)",
						w, r, rec.Code, rec.Header().Get("X-Sidq-Stages"), c.stages, rec.Body.Len(), len(c.csv))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
