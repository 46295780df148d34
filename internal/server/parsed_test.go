package server

// The parsed points of /v1/clean and /v1/assess are request-scoped: the
// parse carves them from a pooled slab (trajectory.ParseCSVGroups), and
// the handler hands the slab back — /v1/assess once its JSON is
// written, /v1/clean only after a run that returned nil, since a run
// cut by its deadline abandons a worker that may still read the points.
// These tests race the hand-back against concurrent requests, pin that
// a cut run keeps its points, and hold a warm clean's allocations to
// what its trajectories cost, whatever their length.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sidq/internal/israce"
	"sidq/internal/trajectory"
)

// TestParsedPointsHammer runs /v1/clean and /v1/assess requests from
// many goroutines at once over bodies of different sizes — so a slab
// one request hands back is taken by another of a different length —
// and a body whose parse fails after its first row. Every answer must
// equal its serial answer byte for byte, X-Sidq-Stages included. Run
// under -race it is the ownership gate of the parsed points (make
// race-hammer).
func TestParsedPointsHammer(t *testing.T) {
	bodies := [][]byte{
		[]byte("id,t,x,y\nveh-0,0,1,2\nveh-0,1,2,3\nveh-1,0,5,5\n"),
		dirtyWalks(t, "l-", 90, 2, 0.5, 0, false), // nothing planned
		dirtyWalks(t, "m-", 50, 3, 3, 0.2, false), // two rounds
		heavyCleanBody(t, "h-", 1),                // one round, every stage
		dirtyWalks(t, "b-", 7, 10, 6, 0.03, true), // ten walks
		[]byte("id,t,x,y\nveh-A,1,2,3\nveh-A,zzz,2,3\n"),
	}
	routes := []string{"/v1/clean", "/v1/assess"}
	type answer struct {
		status       int
		stages, body string
	}
	ask := func(svc *Service, route string, body []byte) answer {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route+"?maxspeed=10", bytes.NewReader(body)))
		return answer{rec.Code, rec.Header().Get("X-Sidq-Stages"), rec.Body.String()}
	}
	svc := newTestService(Config{})
	defer svc.Close()
	n := len(bodies) * len(routes)
	want := make([]answer, n)
	for k := range want {
		want[k] = ask(svc, routes[k%len(routes)], bodies[k/len(routes)])
		if ok := k/len(routes) == len(bodies)-1; (want[k].status == http.StatusOK) == ok {
			t.Fatalf("serial %s of body %d: status %d %.100s", routes[k%len(routes)], k/len(routes), want[k].status, want[k].body)
		}
	}
	const workers, rounds = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w*rounds + r*5) % n
				if got := ask(svc, routes[k%len(routes)], bodies[k/len(routes)]); got != want[k] {
					errs <- fmt.Errorf("worker %d round %d, %s of body %d: %d, stages %q, %d bytes; serially %d, %q, %d bytes",
						w, r, routes[k%len(routes)], k/len(routes), got.status, got.stages, len(got.body), want[k].status, want[k].stages, len(want[k].body))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCleanDeadlineKeepsParsedPoints: a /v1/clean whose deadline passes
// while a stage runs abandons the round's worker, which goes on reading
// the parsed points, so the handler must not hand them back. The body
// plans over two rounds, and the deadline is made to pass once a
// goroutine is seen inside a first-round stage, before anything is
// written. Collections are held off, since one empties the pools, and
// the test runs on one P, since a Get finds an item another P holds
// only once it was put to that P's shared list; once the abandoned
// worker is gone, a parse of the same body must allocate its slab
// afresh — one the cut request had handed back would come out of the
// pool. (Under -race, sync.Pool drops a quarter of what it is given, so
// there the check catches a release only most of the time.)
func TestCleanDeadlineKeepsParsedPoints(t *testing.T) {
	body, first := twoRoundBody(t)
	trs, err := trajectory.ParseCSV(body)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, tr := range trs {
		points += len(tr.Points)
	}
	slab := uint64(points) * uint64(unsafe.Sizeof(trajectory.Point{}))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for attempt := 0; ; attempt++ {
		runtime.GC() // the last attempt's garbage, and twice to empty the pools
		runtime.GC()
		svc := newTestService(Config{})
		rec, caught := cleanCutInFirstRound(svc, body, first)
		svc.Close()
		if !caught || rec.Code != http.StatusServiceUnavailable {
			if attempt == 20 {
				t.Fatal("the deadline never passed inside the first round")
			}
			continue
		}
		awaitNoWorker(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := trajectory.ParseCSVGroups(body)
		if err != nil {
			t.Fatal(err)
		}
		g.Trajectories() // the carve takes the slab
		runtime.ReadMemStats(&after)
		g.Release()
		if got := after.TotalAlloc - before.TotalAlloc; got < slab {
			t.Fatalf("after the cut request a parse of its body allocated %d bytes, less than its %d-byte slab: the cut request handed its points back", got, slab)
		}
		return
	}
}

// awaitNoWorker waits until no goroutine runs a round of the runner.
func awaitNoWorker(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("sidq/internal/core.(*worker).work(")); {
		if time.Now().After(deadline) {
			t.Fatal("an abandoned worker is still running after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// warmCleanCost is what a warm /v1/clean of body allocates: the mean
// allocation count of 20 requests, and the least of three rounds of 20
// in bytes per request. It measures on one P, as AllocsPerRun does,
// since an item a pool holds in one P's private slot is not found from
// another, and with collections held off, since one empties the pools;
// either makes a round pay to refill them. It also returns the stages
// run.
func warmCleanCost(t *testing.T, svc *Service, body []byte) (allocs float64, bytes uint64, stages string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	u, _ := url.Parse("/v1/clean?maxspeed=10")
	w := &discardWriter{h: http.Header{}}
	run := func() {
		clear(w.h)
		w.status = 0
		svc.ServeHTTP(w, cleanRequest(u, body))
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	for i := 0; i < 4; i++ {
		run() // warm: pools filled
	}
	stages = w.h.Get("X-Sidq-Stages")
	allocs = testing.AllocsPerRun(20, run)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes = ^uint64(0)
	for r := 0; r < 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/20)
	}
	return allocs, bytes, stages
}

// TestCleanWarmAllocsIndependentOfLength: a warm /v1/clean allocates
// per trajectory and per stage, not per point. The heavy body's three
// walks and the same walks four times as long plan the same stages, and
// their warm cleans must make the same number of allocations, give or
// take two, and allocate within lengthBound bytes of each other. Before
// the parsed points were pooled, the longer body cost 163 kB a request
// and the shorter 48 kB.
func TestCleanWarmAllocsIndependentOfLength(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items under the race detector by design")
	}
	const lengthBound = 4 << 10
	svc := newTestService(Config{})
	defer svc.Close()
	short, long := heavyWalks(t, "veh-", 1, 600), heavyWalks(t, "veh-", 1, 2400)
	sa, sb, sStages := warmCleanCost(t, svc, short)
	la, lb, lStages := warmCleanCost(t, svc, long)
	t.Logf("warm /v1/clean: %d-byte body %.0f allocations, %d bytes; %d-byte body %.0f allocations, %d bytes",
		len(short), sa, sb, len(long), la, lb)
	if sStages != lStages {
		t.Fatalf("the bodies plan %q and %q: they must run the same stages", sStages, lStages)
	}
	if la > sa+2 || la < sa-2 {
		t.Errorf("%.0f allocations for the long body, %.0f for the short: want the same, give or take two", la, sa)
	}
	if lb > sb+lengthBound || sb > lb+lengthBound {
		t.Errorf("%d bytes for the long body, %d for the short: want them within %d", lb, sb, lengthBound)
	}
}
