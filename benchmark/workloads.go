package main

// The four workloads. Each one is a traffic mix chosen so that a
// different set of layers does the work; README.md says why.
//
// One run of a workload is:
//
//	set-up (several times; the median is setup_s, the last one is used)
//	a fixed-count ingest phase (not clean_batch): its sessions give the
//	  count-based metrics, which therefore repeat exactly, and at its end
//	  the data directory is copied with the sessions still open — the
//	  image a kill -9 would leave
//	the measured window, closed loop, -seconds long after a warm-up of a
//	  tenth of that in the same sessions; in a traced run a traced window
//	  of half the time comes first and the untraced window takes the
//	  other half
//	verification of everything not already checked as it arrived
//	recovery of the crash image: timed, and its flushed drain compared
//	  byte for byte with the live service's

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sidq/internal/core"
	"sidq/internal/roadnet"
	"sidq/internal/server"
	"sidq/internal/store"
	"sidq/internal/trajectory"
)

const (
	wIngestRaw     = "ingest_raw"
	wIngestMatched = "ingest_matched"
	wCleanBatch    = "clean_batch"
	wHistoryMixed  = "history_mixed"

	writesPerQuery = 4 // history_mixed: ingest chunks after every range query
)

var workloadNames = []string{wIngestRaw, wIngestMatched, wCleanBatch, wHistoryMixed}

// sizes is how much work a run does apart from the time-boxed window.
type sizes struct {
	grid           int // the city is grid x grid intersections
	rawChunks      int // ingest_raw: chunks per client in the fixed-count phase
	matchedChunks  int // ingest_matched: the same
	preloadChunks  int // history_mixed: chunks preloaded during set-up
	setupRepeats   int
	recoverRepeats int
}

// fullSize is sized for the 2-core reference box. The city has 6400
// nodes, deliberately above roadnet's 4096-node threshold, so the
// contraction hierarchy, the route cache and the snapper are all live.
var fullSize = sizes{
	grid: 80, rawChunks: 1536, matchedChunks: 768, preloadChunks: 1600,
	setupRepeats: 3, recoverRepeats: 3,
}

// smokeSize runs every code path in about a second per workload.
var smokeSize = sizes{
	grid: 20, rawChunks: 32, matchedChunks: 16, preloadChunks: 32,
	setupRepeats: 1, recoverRepeats: 1,
}

// runConfig is one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	clients  int
	tmp      string // scratch directory for data directories; the caller removes it
	outDir   string // where a traced run writes its span file
}

// runResult is what one run reports.
type runResult struct {
	attempted, failed int
	metrics           map[string]float64
}

// env is one set-up: the feed, the running service, its clients, and in
// a traced run the shadow state.
type env struct {
	cfg     runConfig
	feed    *feed
	dir     string
	live    *live
	clients []*client

	fixed      []*ingestSession // sessions of the fixed-count phase
	closed     []*ingestSession // every finished session, for history references
	image      string           // crash image of the data directory
	imageBytes int64

	cleanWant [][]byte // clean_batch: the reference response per body
	cleanRMSE float64

	shadow  *shadow
	shadows []*shadowClient
}

func (e *env) close() {
	for _, c := range e.clients {
		c.closeIdle()
	}
	if e.live != nil {
		e.live.stop()
	}
	if e.shadow != nil {
		e.shadow.close()
	}
}

func (e *env) network() *roadnet.Graph {
	if e.cfg.workload == wIngestMatched {
		return e.feed.graph
	}
	return nil
}

// setup builds the feed and starts the service; for clean_batch it also
// computes the reference responses, for history_mixed it preloads.
func setup(ctx context.Context, cfg runConfig, n int) (*env, error) {
	e := &env{cfg: cfg}
	e.feed = newFeed(cfg.seed, cfg.size.grid, cfg.clients)
	e.dir = filepath.Join(cfg.tmp, fmt.Sprintf("data-%d", n))
	var err error
	e.live, err = startService(serviceConfig(e.dir, e.network(), cfg.workload == wHistoryMixed))
	if err != nil {
		return nil, err
	}
	for c := 0; c < cfg.clients; c++ {
		e.clients = append(e.clients, newClient(e.live.base))
	}
	if cfg.trace {
		var shadowGraph *roadnet.Graph
		if e.network() != nil {
			shadowGraph = newCity(cfg.seed, cfg.size.grid)
		}
		d := e.live.cfg.Durability
		e.shadow, err = newShadow(filepath.Join(cfg.tmp, fmt.Sprintf("shadow-%d", n)),
			store.Options{Fsync: d.Fsync, SegmentBytes: d.SegmentBytes}, shadowGraph)
		if err != nil {
			e.close()
			return nil, err
		}
		for range e.clients {
			e.shadows = append(e.shadows, newShadowClient(e.shadow))
		}
	}
	switch cfg.workload {
	case wCleanBatch:
		err = e.cleanReferences(ctx)
	case wHistoryMixed:
		err = e.fixedPhase(ctx, "p", 1, cfg.size.preloadChunks)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// ingestStep sends session s's next chunk from client c, drains when
// due, and in a traced run replays both against the shadow.
func (e *env) ingestStep(c int, s *ingestSession, rec func(start, end time.Time)) error {
	cl := e.clients[c]
	k := int(s.acked.Load())
	start, end, err := s.send(cl)
	if err != nil {
		return err
	}
	if rec != nil {
		rec(start, end)
	}
	err = e.replay(c, start, end, func(sc *shadowClient, root int) error { return sc.ingest(root, s.id, s.feed.events(k)) })
	if err != nil {
		return err
	}
	if (k+1)%drainEvery == 0 {
		start, end, err := s.drain(cl, false)
		if err != nil {
			return err
		}
		if e.shadow != nil && e.shadows[c].tr != nil {
			e.shadows[c].tr.root(spResults, start, end)
		}
	}
	return nil
}

// openSessions opens one session per client under prefix, its event
// time starting at t0.
func (e *env) openSessions(prefix string, clients, t0 int) ([]*ingestSession, error) {
	out := make([]*ingestSession, clients)
	for c := range out {
		s, err := openSession(e.clients[c], e.feed.session(prefix+strconv.Itoa(c), c, t0), e.network())
		if err != nil {
			return nil, err
		}
		out[c] = s
	}
	return out, nil
}

// finishSessions flushes, closes and checks the sessions.
func (e *env) finishSessions(sessions []*ingestSession) error {
	for c, s := range sessions {
		if err := s.finish(e.clients[c]); err != nil {
			return err
		}
		e.closed = append(e.closed, s)
	}
	return nil
}

// fixedPhase ingests the same chunks chunks per client on every run,
// copies the data directory while the sessions are still open, and then
// finishes the sessions.
func (e *env) fixedPhase(ctx context.Context, prefix string, clients, chunks int) error {
	sessions, err := e.openSessions(prefix, clients, 0)
	if err != nil {
		return err
	}
	err = parallel(clients, func(c int) error {
		for k := 0; k < chunks && ctx.Err() == nil; k++ {
			if err := e.ingestStep(c, sessions[c], nil); err != nil {
				return err
			}
		}
		return ctx.Err()
	})
	if err != nil {
		return err
	}
	time.Sleep(batchSettle)
	e.image = filepath.Join(e.cfg.tmp, "image")
	if err := os.RemoveAll(e.image); err != nil {
		return err
	}
	if err := copyDir(e.dir, e.image); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	if e.imageBytes, err = dirBytes(e.image); err != nil {
		return err
	}
	e.fixed = sessions
	return e.finishSessions(sessions)
}

// recoverImage opens the crash image the way a restarted sidqserve
// would, repeats times on a fresh copy each, and on the first checks
// that every session's flushed drain equals the live service's.
func (e *env) recoverImage() (recoverS []float64, replayed float64, err error) {
	for i := 0; i < e.cfg.size.recoverRepeats; i++ {
		dst := filepath.Join(e.cfg.tmp, fmt.Sprintf("recover-%d", i))
		if err := copyDir(e.image, dst); err != nil {
			return nil, 0, err
		}
		cfg := e.live.cfg
		cfg.Durability.Dir = dst
		start := time.Now()
		svc, err := server.OpenService(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("recover crash image: %w", err)
		}
		recoverS = append(recoverS, time.Since(start).Seconds())
		if i == 0 {
			replayed = float64(svc.Metrics().Counter("sidq_stream_replayed_records_total").Value())
			for _, s := range e.fixed {
				rr := httptest.NewRecorder()
				svc.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/stream/"+s.id+"/results?flush=1", nil))
				if rr.Code != http.StatusOK {
					err = fmt.Errorf("recovered session %s: drain status %d", s.feed.prefix, rr.Code)
				} else if !bytes.Equal(rr.Body.Bytes(), s.lastBody) {
					err = fmt.Errorf("recovered session %s: flushed drain differs from the live service's (%d vs %d bytes)",
						s.feed.prefix, rr.Body.Len(), len(s.lastBody))
				}
			}
		}
		svc.Close()
		if rmErr := os.RemoveAll(dst); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return recoverS, replayed, nil
}

// storeOpen times store.Open alone on a copy of the crash image.
func (e *env) storeOpen() (float64, error) {
	dst := filepath.Join(e.cfg.tmp, "store-open")
	if err := copyDir(e.image, dst); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dst)
	d := e.live.cfg.Durability
	start := time.Now()
	l, _, err := store.Open(dst, store.Options{Fsync: d.Fsync, SegmentBytes: d.SegmentBytes})
	if err != nil {
		return 0, err
	}
	took := time.Since(start).Seconds()
	return took, l.Close()
}

// cleanReferences computes, in this process, the response /v1/clean
// must give for every body, and the error against truth before and
// after cleaning.
func (e *env) cleanReferences(ctx context.Context) error {
	var sqIn, sqOut float64
	var nIn, nOut int
	for b, body := range e.feed.bodies {
		in, err := trajectory.ReadCSVColumns(bytes.NewReader(body.csv))
		if err != nil {
			return fmt.Errorf("clean body %d: %w", b, err)
		}
		ds := &core.Dataset{Trajectories: in, MaxSpeed: cleanMaxSpeed, ExpectedInterval: 1}
		cleaned, _, _, err := core.PlanAndRunIterativeWith(ctx, &core.Runner{Policy: core.SkipStage}, ds, core.DefaultTargets(), 3)
		if err != nil {
			return fmt.Errorf("clean body %d: %w", b, err)
		}
		var buf bytes.Buffer
		if err := trajectory.WriteCSV(&buf, cleaned.Trajectories); err != nil {
			return err
		}
		e.cleanWant = append(e.cleanWant, buf.Bytes())
		bIn, bnIn := sqErrAgainst(in, body.truth)
		bOut, bnOut := sqErrAgainst(cleaned.Trajectories, body.truth)
		if bnOut == 0 || bnIn == 0 {
			return fmt.Errorf("clean body %d: empty input or output", b)
		}
		if body.heavy && bOut/float64(bnOut) >= bIn/float64(bnIn) {
			return fmt.Errorf("clean body %d (heavy): cleaning did not bring the error down (rmse %.3f -> %.3f m)",
				b, math.Sqrt(bIn/float64(bnIn)), math.Sqrt(bOut/float64(bnOut)))
		}
		sqIn, nIn, sqOut, nOut = sqIn+bIn, nIn+bnIn, sqOut+bOut, nOut+bnOut
	}
	e.cleanRMSE = math.Sqrt(sqOut/float64(nOut)) / math.Sqrt(sqIn/float64(nIn))
	return nil
}

// sqErrAgainst sums the squared error of every point against its
// trajectory's truth, interpolated at the point's own timestamp.
func sqErrAgainst(trs []*trajectory.Trajectory, truth map[string]*trajectory.Trajectory) (sum float64, n int) {
	for _, tr := range trs {
		ref := truth[tr.ID]
		if ref == nil {
			continue
		}
		for _, p := range tr.Points {
			if pos, ok := ref.LocationAt(p.T); ok {
				sum += pos.DistSq(p.Pos)
				n++
			}
		}
	}
	return sum, n
}

// --- windows ---------------------------------------------------------

// measured is one window's raw results plus what the workload counted
// during it.
type measured struct {
	res       windowResult
	counters  map[string]float64 // delta of GET /v1/metrics over the window
	after     map[string]float64 // GET /v1/metrics at the end of the window
	retainMs  float64            // history_mixed: the timed retention pass ...
	removed   int                // ... and the segments it removed
	bodyBytes int64              // request bytes sent
	tally                        // summed over clients
	spans     []span
}

// tally is what one client counts during a window.
type tally struct {
	candidates int // X-Sidq-Chunks summed over queries
	rowsOut    int // rows returned by queries
	scan       historyStats
}

// queryRecord is one history range query, kept for the check after the
// window against the generator's reference counts.
type queryRecord struct {
	w                window
	client           int
	own              int // own session's acked chunks (cannot change during the query)
	otherLo, otherHi []int
	rows             int
}

// loadClient is one client's state in a window.
type loadClient struct {
	tally
	ops     int
	rng     *rand.Rand
	queries []queryRecord // warm-up included: every answer is checked
}

// replay runs fn against client c's shadow, under a new root span when
// the window is traced. Without a shadow it does nothing.
func (e *env) replay(c int, start, end time.Time, fn func(sc *shadowClient, root int) error) error {
	if e.shadow == nil {
		return nil
	}
	sc, root := e.shadows[c], -1
	if sc.tr != nil {
		root = sc.tr.root(spHandle, start, end)
	}
	return fn(sc, root)
}

// cleanStep posts the client's next body and holds the answer against
// the in-process reference.
func (e *env) cleanStep(c int, lc *loadClient, rec *recorder) error {
	cl := e.clients[c]
	b := (lc.ops + c*cleanBodies/2) % cleanBodies
	lc.ops++
	body := e.feed.bodies[b].csv
	_, start, end, err := cl.do(http.MethodPost, "/v1/clean?maxspeed="+strconv.FormatFloat(cleanMaxSpeed, 'f', -1, 64), body)
	if err != nil {
		return err
	}
	rec.op(start, end)
	if !bytes.Equal(cl.body.Bytes(), e.cleanWant[b]) {
		cl.failed++
		return fmt.Errorf("clean body %d: response differs from the in-process reference (%d vs %d bytes)", b, cl.body.Len(), len(e.cleanWant[b]))
	}
	return e.replay(c, start, end, func(sc *shadowClient, root int) error { return sc.clean(root, body) })
}

// historyStep issues one range query and then writesPerQuery chunks into
// the client's own session.
func (e *env) historyStep(c int, lc *loadClient, sessions []*ingestSession, rec *recorder) error {
	cl := e.clients[c]
	w := e.feed.historyWindow(lc.rng, float64(e.cfg.size.preloadChunks*rowsPerSource))
	q := queryRecord{w: w, client: c, own: int(sessions[c].acked.Load())}
	others := func() (acked []int) {
		for o, s := range sessions {
			if o != c {
				acked = append(acked, int(s.acked.Load()))
			}
		}
		return acked
	}
	q.otherLo = others()
	resp, start, end, err := cl.do(http.MethodGet, historyPath(w), nil)
	if err != nil {
		return err
	}
	q.otherHi = others()
	rec.op(start, end)
	if q.rows, err = checkHistoryRows(cl.body.Bytes(), w); err != nil {
		cl.failed++
		return err
	}
	n, err := strconv.Atoi(resp.Header.Get("X-Sidq-Chunks"))
	if err != nil {
		return fmt.Errorf("history query: bad X-Sidq-Chunks %q", resp.Header.Get("X-Sidq-Chunks"))
	}
	lc.candidates += n
	lc.rowsOut += q.rows
	lc.queries = append(lc.queries, q)
	err = e.replay(c, start, end, func(sc *shadowClient, root int) error {
		st, err := sc.history(root, w)
		lc.scan.wanted += st.wanted
		lc.scan.scanned += st.scanned
		return err
	})
	for i := 0; i < writesPerQuery && err == nil; i++ {
		err = e.ingestStep(c, sessions[c], rec.write)
	}
	return err
}

// runMeasured runs one closed-loop window of the workload. With traced
// set, ops are replayed against the shadow and spans recorded.
func (e *env) runMeasured(ctx context.Context, prefix string, dur time.Duration, traced bool) (*measured, error) {
	clients := e.cfg.clients
	epoch := time.Now()
	for c, sc := range e.shadows {
		sc.tr = nil
		if traced {
			sc.tr = &tracer{epoch: epoch, client: c}
		}
	}
	if !traced && e.shadow != nil {
		// The untraced window of a traced run: shadow replays would bump
		// the process-wide store/stream/roadnet counters read below.
		saved, savedClients := e.shadow, e.shadows
		e.shadow, e.shadows = nil, nil
		defer func() { e.shadow, e.shadows = saved, savedClients }()
	}

	var sessions []*ingestSession
	var err error
	switch e.cfg.workload {
	case wIngestRaw, wIngestMatched:
		sessions, err = e.openSessions(prefix, clients, 0)
	case wHistoryMixed:
		// history_mixed queries the preloaded past while its sessions
		// write the present: their event time starts after the preload's
		// ends, so a query's cost does not grow with the window's own
		// writes.
		sessions, err = e.openSessions(prefix, clients, e.cfg.size.preloadChunks*rowsPerSource+int(e.feed.meanSpan))
	}
	if err != nil {
		return nil, err
	}
	lcs := make([]*loadClient, clients)
	for c := range lcs {
		lcs[c] = &loadClient{rng: rand.New(rand.NewSource(e.cfg.seed*1000 + int64(prefix[0])*10 + int64(c)))}
	}
	step := func(c int, rec *recorder) error {
		switch e.cfg.workload {
		case wCleanBatch:
			return e.cleanStep(c, lcs[c], rec)
		case wHistoryMixed:
			return e.historyStep(c, lcs[c], sessions, rec)
		}
		return e.ingestStep(c, sessions[c], rec.op)
	}

	// The warm-up runs in the same sessions, a tenth of the window long;
	// what it counted is forgotten before the window starts.
	m := &measured{}
	var before map[string]float64
	m.res, err = runWindow(ctx, clients, dur/10, dur, step, func() error {
		for c, cl := range e.clients {
			m.bodyBytes -= cl.sent
			lcs[c].tally = tally{}
		}
		for _, sc := range e.shadows {
			if sc.tr != nil {
				sc.tr.spans, sc.tr.ops = nil, 0
			}
		}
		var err error
		before, err = scrape(e.live.base)
		return err
	})
	if err != nil {
		return nil, err
	}
	if m.after, err = scrape(e.live.base); err != nil {
		return nil, err
	}
	m.counters = counterDelta(before, m.after)
	var queries []queryRecord
	for c, cl := range e.clients {
		m.bodyBytes += cl.sent
		m.candidates += lcs[c].candidates
		m.rowsOut += lcs[c].rowsOut
		m.scan.wanted += lcs[c].scan.wanted
		m.scan.scanned += lcs[c].scan.scanned
		queries = append(queries, lcs[c].queries...)
	}
	for _, sc := range e.shadows {
		if sc.tr != nil {
			m.spans = append(m.spans, sc.tr.spans...)
			sc.tr = nil
		}
	}

	if e.cfg.workload == wHistoryMixed {
		if err := e.checkQueries(queries, sessions); err != nil {
			return nil, err
		}
		if !traced {
			if err := e.retentionPass(m); err != nil {
				return nil, err
			}
		}
	}
	if err := e.finishSessions(sessions); err != nil {
		return nil, err
	}
	return m, nil
}

func historyPath(w window) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	return "/v1/history/range?minx=" + f(w.rect.Min.X) + "&miny=" + f(w.rect.Min.Y) +
		"&maxx=" + f(w.rect.Max.X) + "&maxy=" + f(w.rect.Max.Y) + "&mint=" + f(w.t0) + "&maxt=" + f(w.t1)
}

// checkHistoryRows checks that every returned row lies inside the
// window and returns how many there are.
func checkHistoryRows(body []byte, w window) (int, error) {
	return forRows(body, func(r row) error {
		if r.t < w.t0 || r.t > w.t1 || r.x < w.rect.Min.X || r.x > w.rect.Max.X || r.y < w.rect.Min.Y || r.y > w.rect.Max.Y {
			return fmt.Errorf("history row of %s at t=%v (%v, %v) lies outside the queried window %+v", r.source, r.t, r.x, r.y, w)
		}
		return nil
	})
}

// checkQueries holds every query's row count against the generator's
// reference: at least the rows acked before the query started, at most
// those acked before it ended.
func (e *env) checkQueries(queries []queryRecord, sessions []*ingestSession) error {
	for _, q := range queries {
		lo := 0
		for _, s := range e.closed {
			lo += s.feed.countInWindow(q.w, int(s.acked.Load()))
		}
		hi := lo
		o := 0
		for c, s := range sessions {
			if c == q.client {
				n := s.feed.countInWindow(q.w, q.own)
				lo, hi = lo+n, hi+n
				continue
			}
			lo += s.feed.countInWindow(q.w, q.otherLo[o])
			hi += s.feed.countInWindow(q.w, q.otherHi[o])
			o++
		}
		if q.rows < lo || q.rows > hi {
			return fmt.Errorf("history query %+v returned %d rows, the reference says between %d and %d", q.w, q.rows, lo, hi)
		}
	}
	return nil
}

// retentionPass drives one deterministic retention pass two hours into
// the future, times it, and checks that history still answers with an
// advanced retained floor.
func (e *env) retentionPass(m *measured) error {
	floor := func() (uint64, error) {
		cl := e.clients[0]
		resp, _, _, err := cl.do(http.MethodGet, "/v1/history/range", nil)
		if err != nil {
			return 0, fmt.Errorf("full-window history query: %w", err)
		}
		return strconv.ParseUint(resp.Header.Get("X-Sidq-History-Min-Seq"), 10, 64)
	}
	now := time.Now()
	// The first pass only records (now, last seq): nothing is old yet.
	e.live.svc.RunRetentionOnce(now)
	start := time.Now()
	st := e.live.svc.RunRetentionOnce(now.Add(2 * time.Hour))
	m.retainMs, m.removed = float64(time.Since(start).Nanoseconds())/1e6, st.SegmentsRemoved
	after, err := floor()
	if err != nil {
		return err
	}
	if st.SegmentsRemoved == 0 || after <= 1 || after != st.RetainedSeq {
		return fmt.Errorf("retention pass removed %d segments and left the history floor at %d (pass reports %d)", st.SegmentsRemoved, after, st.RetainedSeq)
	}
	return nil
}

// --- one run -----------------------------------------------------------

func runWorkload(ctx context.Context, cfg runConfig) (runResult, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	if !known {
		return runResult{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}

	repeats := cfg.size.setupRepeats
	if cfg.trace {
		repeats = 1 // a traced run does not report setup_s
	}
	var setups []float64
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
			if err := os.RemoveAll(e.dir); err != nil {
				return runResult{}, err
			}
		}
		start := time.Now()
		var err error
		if e, err = setup(ctx, cfg, i); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	res := runResult{metrics: map[string]float64{}}
	count := func() {
		res.attempted, res.failed = 0, 0
		for _, c := range e.clients {
			res.attempted += c.attempted
			res.failed += c.failed
		}
	}
	fail := func(err error) (runResult, error) {
		count()
		return res, err
	}

	fixedChunks := map[string]int{wIngestRaw: cfg.size.rawChunks, wIngestMatched: cfg.size.matchedChunks}
	if chunks := fixedChunks[cfg.workload]; chunks > 0 {
		if err := e.fixedPhase(ctx, "a", cfg.clients, chunks); err != nil {
			return fail(err)
		}
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var traced, plain *measured
	var err error
	if cfg.trace {
		window /= 2
		if traced, err = e.runMeasured(ctx, "t", window, true); err != nil {
			return fail(err)
		}
		path := filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return fail(err)
		}
		if err := writeTrace(path, cfg.workload, cfg.seed, traced.spans); err != nil {
			return fail(err)
		}
	}
	if plain, err = e.runMeasured(ctx, "m", window, false); err != nil {
		return fail(err)
	}

	var recoverS []float64
	var replayed float64
	if e.image != "" {
		if recoverS, replayed, err = e.recoverImage(); err != nil {
			return fail(err)
		}
	}
	count()
	if res.failed > 0 {
		return res, fmt.Errorf("%d of %d requests failed", res.failed, res.attempted)
	}

	lat := plain.res.primary
	if len(lat) == 0 {
		return res, fmt.Errorf("window too short: no op finished in %v", plain.res.elapsed)
	}
	primary := float64(len(lat))
	m := res.metrics

	rmse := e.cleanRMSE
	if len(e.fixed) > 0 {
		rmse = rmseRatio(e.fixed)
	}
	if !cfg.trace {
		m["setup_s"] = median(setups)
		m["ops_per_s"] = primary / plain.res.elapsed.Seconds()
		m["latency_p50_ms"] = percentile(lat, 0.50)
		m["latency_p99_ms"] = percentile(lat, 0.99)
		m["alloc_kb_per_op"] = plain.res.allocKB / primary
		m["rmse_ratio"] = rmse
		return res, nil
	}

	for _, d := range perLayer {
		m[d.name] = 0
	}
	if len(e.fixed) > 0 {
		var points int64
		for _, s := range e.fixed {
			points += s.acked.Load() * chunkRows
		}
		m["wal_bytes_per_point"] = float64(e.imageBytes) / float64(points)
		m["recover_s"] = median(recoverS)
		m["server.replayed_records"] = replayed
		if m["store.open_s"], err = e.storeOpen(); err != nil {
			return res, err
		}
	}
	e.layerMetrics(m, traced, plain)
	return res, nil
}

// layerMetrics fills in the per-layer metrics that come out of the two
// windows: counts from the untraced one, span self times from the traced
// one. A layer the workload does not cross stays 0.
func (e *env) layerMetrics(m map[string]float64, traced, plain *measured) {
	workload := e.cfg.workload
	lat := plain.res.primary
	primary := float64(len(lat))
	c := plain.counters
	switch workload {
	case wIngestRaw, wIngestMatched:
		m["write_p99_ms"] = percentile(lat, 0.99)
	case wHistoryMixed:
		m["write_p99_ms"] = percentile(plain.res.secondary, 0.99)
		m["server.retention_pass_ms"] = plain.retainMs
		m["index.candidates_per_query"] = float64(plain.candidates) / primary
		if plain.candidates > 0 {
			m["index.row_yield"] = float64(plain.rowsOut) / float64(plain.candidates*chunkRows)
		}
		if traced.scan.wanted > 0 {
			m["store.records_scanned_per_hit"] = float64(traced.scan.scanned) / float64(traced.scan.wanted)
		}
	}
	m["server.requests"] = sumPrefix(c, "sidq_server_requests_total{")
	m["server.shed"] = c["sidq_server_shed_total"] + c["sidq_stream_session_rejected_total"]
	m["server.snapshots"] = c["sidq_stream_snapshots_total"]
	m["stream.late"] = c[`sidq_stream_session_events_total{kind="late"}`]
	m["stream.emitted"] = c[`sidq_stream_session_events_total{kind="emitted"}`]
	if in := c[`sidq_stream_session_events_total{kind="ingested"}`]; in > 0 {
		m["stream.emit_ratio"] = m["stream.emitted"] / in
		if workload == wIngestMatched {
			// Rows that passed the reorderer and the speed gate and came
			// out snapped to an edge.
			m["uncertain.matched_ratio"] = m["stream.emitted"] / (in - m["stream.late"] - c[`sidq_stream_session_events_total{kind="outlier"}`])
		}
	}
	m["store.appends"] = c["sidq_store_appends_total"]
	m["store.append_bytes"] = c["sidq_store_append_bytes_total"]
	m["store.fsyncs"] = c["sidq_store_fsyncs_total"]
	m["store.fsync_ms"] = c["sidq_store_fsync_ns_sum"] / 1e6
	m["store.segments_sealed"] = c["sidq_store_segments_sealed_total"]
	// No retention pass fires inside a window; the one history_mixed
	// drives by hand comes right after it.
	m["store.segments_removed"] = c["sidq_store_segments_removed_total"] + float64(plain.removed)
	m["store.disk_bytes"] = plain.after["sidq_store_disk_bytes"]
	m["roadnet.engine_build_s"] = e.feed.engineBuild.Seconds()
	if workload == wIngestMatched {
		hits, misses := c["sidq_roadnet_route_cache_hits_total"], c["sidq_roadnet_route_cache_misses_total"]
		if hits+misses > 0 {
			m["roadnet.cache_hit_ratio"] = hits / (hits + misses)
		}
		m["roadnet.heap_pops"] = c["sidq_roadnet_heap_pops_total"]
		m["roadnet.ch_many"] = c["sidq_roadnet_ch_many_total"]
		m["roadnet.many_sweeps"] = c["sidq_roadnet_many_sweeps_total"]
	}
	if workload == wCleanBatch {
		m["core.stages_per_op"] = sumPrefix(c, "sidq_runner_stage_total{") / primary
		stageUs := func(stage string) float64 {
			return c[`sidq_runner_stage_latency_ns_sum{stage="`+stage+`"}`] / 1e3 / primary
		}
		m["core.dedup_us"] = stageUs("deduplicate")
		m["core.impute_us"] = stageUs("interpolation-impute")
		m["outlier.stage_us"] = stageUs("outlier-removal")
		m["refine.stage_us"] = stageUs("kalman-smoothing")
	}
	m["gen.body_bytes_per_op"] = float64(plain.bodyBytes) / primary

	// A span is named after its layer's metric: "store.append" gives
	// store.append_us. The round trip's own self time is the remainder.
	tracedOps := float64(len(traced.res.primary))
	for name, ns := range selfByName(traced.spans) {
		m[name+"_us"] = float64(ns) / 1e3 / tracedOps
	}
	m["server.self_us"] = m["server.handle_us"]
	var handleNs int64
	for _, s := range traced.spans {
		if s.Name == spHandle {
			handleNs += s.End - s.Start
		}
	}
	m["server.handle_us"] = float64(handleNs) / 1e3 / tracedOps
	if untraced := primary / plain.res.elapsed.Seconds(); untraced > 0 {
		m["trace.overhead_ratio"] = tracedOps / traced.res.elapsed.Seconds() / untraced
	}
}
