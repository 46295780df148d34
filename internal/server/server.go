// Package server exposes the sidq quality middleware over HTTP — the
// paper's "quality management middleware for SID" open issue as a
// runnable service. Endpoints accept the same CSV formats as the CLI
// tools and return JSON assessments or cleaned CSV:
//
//	POST /v1/assess           trajectory CSV -> JSON quality assessment
//	POST /v1/clean            trajectory CSV -> cleaned CSV (plan in headers)
//	POST /v1/readings/assess  readings CSV   -> JSON quality assessment
//	POST /v1/readings/clean   readings CSV   -> cleaned CSV
//	GET  /v1/taxonomy         Figure-2 coverage matrix (text)
//	GET  /v1/healthz          liveness probe
//	GET  /v1/readyz           readiness probe (503 while draining)
//	GET  /v1/metrics          Prometheus text exposition
//
// Streaming ingestion (stream.go; internal/session has the session model
// and does the work):
//
//	POST   /v1/stream/open          create a session -> JSON {session: id}
//	POST   /v1/stream/ingest?session=ID   chunked point CSV -> JSON ack
//	GET    /v1/stream/{id}/results  drain cleaned points (NDJSON, or CSV with
//	                                ?format=csv; ?flush=1 ends the stream)
//	DELETE /v1/stream/{id}          close the session -> JSON summary
//	GET    /v1/history/range        the durable chunk log by space-time window
//
// Query parameters on the trajectory endpoints: maxspeed (m/s,
// default 20) and interval (s, default 1) feed the assessment context;
// the planner uses the default quality targets.
//
// Every request passes through the hardening middleware stack:
// panic recovery, X-Request-ID assignment + access logging, a body
// cap (MaxBodyBytes), an in-flight concurrency limiter shedding load
// with 503, and a per-request timeout.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sidq/internal/core"
	"sidq/internal/obs"
	"sidq/internal/quality"
	"sidq/internal/session"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// Config tunes the service's resilience limits. Zero fields take the
// defaults noted on each field.
type Config struct {
	MaxBodyBytes   int64            // request body cap (default 32 MiB)
	MaxInFlight    int              // concurrent requests before 503 (default 64)
	RequestTimeout time.Duration    // per-request deadline (default 30s; <0 disables)
	Logger         *log.Logger      // access/panic log (default log.Default())
	Trace          obs.TraceSink    // optional sink for session lifecycle trace events
	Stream         StreamConfig     // streaming ingestion limits (the engine's: internal/session)
	Durability     DurabilityConfig // durable WAL settings; honored by OpenService
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Service is the hardened middleware service: the HTTP handler plus
// the readiness switch used for graceful shutdown.
type Service struct {
	cfg      Config
	handler  http.Handler
	ready    atomic.Bool
	draining atomic.Bool
	inflight chan struct{}
	reqSeq   atomic.Uint64
	metrics  *obs.Registry
	engine   *session.Engine // every stream and history route is a call into it

	// The background loops are the shell's: the janitor starts with the
	// first session, retention at OpenService, and Close stops both.
	stop        chan struct{}
	stopOnce    sync.Once
	janitorOnce sync.Once
}

// NewService builds the memory-only service with the given limits,
// whatever cfg.Durability says. It starts ready.
func NewService(cfg Config) *Service {
	cfg.Durability.Dir = ""
	s, _ := OpenService(cfg) // with nothing to open, nothing can fail
	return s
}

// OpenService builds the service and, when cfg.Durability.Dir is set,
// opens the durable trajectory store: the engine recovers the WAL (torn
// tail truncated, sessions rebuilt from snapshots and chunk replay,
// history index repopulated) before the service accepts traffic.
func OpenService(cfg Config) (*Service, error) {
	s := &Service{cfg: cfg.withDefaults(), stop: make(chan struct{})}
	s.inflight = make(chan struct{}, s.cfg.MaxInFlight)
	s.ready.Store(true)
	s.metrics = obs.NewRegistry()
	s.initMetrics()
	eng, err := session.Open(session.Config{
		Stream: s.cfg.Stream, Durability: s.cfg.Durability,
		Metrics: s.metrics, Trace: s.cfg.Trace, Logf: s.logf,
	})
	if err != nil {
		return nil, err
	}
	s.engine = eng
	s.cfg.Stream, s.cfg.Durability = eng.Config().Stream, eng.Config().Durability // defaults applied

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/taxonomy", handleTaxonomy)
	mux.HandleFunc("/v1/assess", handleAssess)
	mux.HandleFunc("/v1/clean", s.handleClean)
	mux.HandleFunc("/v1/readings/assess", handleReadingsAssess)
	mux.HandleFunc("/v1/readings/clean", s.handleReadingsClean)
	mux.HandleFunc("/v1/stream/", s.handleStream)
	mux.HandleFunc("/v1/history/range", s.handleHistoryRange)

	// Innermost first: limits apply around the handlers; recovery and
	// request IDs wrap everything so even limiter rejections are
	// logged and tagged, a recovered panic as its 500. Probes (and the
	// metrics scrape) bypass the limiter and timeout so a saturated
	// service still answers its orchestrator.
	limited := s.withTimeout(s.withConcurrencyLimit(s.withBodyLimit(mux)))
	probes := http.NewServeMux()
	probes.HandleFunc("/v1/healthz", handleHealth)
	probes.HandleFunc("/v1/readyz", s.handleReady)
	probes.HandleFunc("/v1/metrics", s.handleMetrics)
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz", "/v1/readyz", "/v1/metrics":
			probes.ServeHTTP(w, r)
		default:
			// A draining service answers new work with 503 while the
			// listener stays open, so clients see an orderly rejection
			// (and retry elsewhere) instead of a connection reset. The
			// check sits outside the limiter: drained requests never take
			// an in-flight slot, so AwaitIdle only waits for work that was
			// accepted before the drain began.
			if s.draining.Load() {
				s.metrics.Counter(mDrainRejected).Inc()
				w.Header().Set("Connection", "close")
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			limited.ServeHTTP(w, r)
		}
	})
	s.handler = s.withRequestID(s.withRecovery(root))

	// The janitor normally starts on the first open; restored sessions
	// must not wait for one — a service restored at MaxSessions would
	// otherwise 429 every open and the janitor could never start.
	if eng.Sessions() > 0 {
		s.startJanitor()
	}
	if d := s.cfg.Durability; eng.Durable() && d.Retain > 0 {
		s.every(d.RetainEvery, func(now time.Time) { eng.Retain(now) })
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// SetReady flips the readiness probe; SetReady(false) makes /v1/readyz
// return 503 so load balancers drain the instance ahead of shutdown.
func (s *Service) SetReady(ready bool) { s.ready.Store(ready) }

// StartDrain puts the service into drain mode ahead of shutdown:
// /v1/readyz flips to 503 and every new work request is rejected with
// 503 "draining" while requests already in flight run to completion.
// Probes and the metrics scrape keep answering. Use AwaitIdle to wait
// for the in-flight work, then shut the http.Server down — in that
// order, in-flight acks complete and late clients see an orderly 503
// instead of a connection reset.
func (s *Service) StartDrain() {
	s.ready.Store(false)
	s.draining.Store(true)
}

// Draining reports whether StartDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// AwaitIdle blocks until no requests hold an in-flight slot or ctx is
// done, reporting whether the service went idle. Callers drain with
// StartDrain first so new work cannot keep the count forever non-zero.
func (s *Service) AwaitIdle(ctx context.Context) bool {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if len(s.inflight) == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return len(s.inflight) == 0
		case <-t.C:
		}
	}
}

// Close releases the service's background resources: the janitor and
// the retention loop stop, and with durability enabled every live
// session is checkpointed into the WAL before the log is closed, so a
// restart resumes from the snapshots. The handler stays functional
// afterwards for in-memory operation, but durable ingests fail.
func (s *Service) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if err := s.engine.Close(); err != nil {
		s.logf("close: %v", err)
	}
}

// New returns the middleware service handler with default limits
// (kept for existing callers; NewService exposes the limits and the
// readiness switch).
func New() http.Handler {
	return NewService(Config{Logger: DiscardLogger()})
}

// requestIDKey carries the request ID through the context.
type requestIDKey struct{}

// requestID returns the request's assigned ID ("" outside the
// middleware stack).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

func handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func handleTaxonomy(w http.ResponseWriter, r *http.Request) {
	if !allowed(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, core.RenderFigure2())
}

// trajectoryDataset parses the request body into the scratch's grouper,
// with the assessment parameters. A malformed query parameter is
// reported as a *paramError (a 400), not silently defaulted. The
// dataset's trajectories are the scratch's memory until its release.
func (sc *scratch) trajectoryDataset(r *http.Request) (*core.Dataset, error) {
	maxSpeed, err := queryFloat(r, "maxspeed", 20, positive)
	if err != nil {
		return nil, err
	}
	interval, err := queryFloat(r, "interval", 1, positive)
	if err != nil {
		return nil, err
	}
	err = sc.parseBody(r, func(body []byte) error {
		if err := trajectory.ParseCSVGroups(&sc.g, body); err != nil {
			return fmt.Errorf("parse trajectory csv: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &core.Dataset{
		Trajectories:     sc.g.Trajectories(),
		MaxSpeed:         maxSpeed,
		ExpectedInterval: interval,
	}, nil
}

// assessmentJSON renders an Assessment as a stable JSON object. A
// dimension that came out NaN or infinite — a NaN or Inf field in the
// rows can do it — has no JSON number and is rendered as null.
func assessmentJSON(a quality.Assessment) map[string]*float64 {
	out := map[string]*float64{}
	for _, d := range quality.AllDimensions() {
		if v, ok := a[d]; ok {
			out[d.String()] = nil
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				out[d.String()] = &v
			}
		}
	}
	return out
}

// bodyError maps a parse failure to the right status: 413 when the
// body cap was hit, 503 when the body was still arriving at the
// request's deadline (withTimeout), 400 otherwise. Both are detected by
// type alone — errors.As and errors.Is unwrap the parsers' fmt %w
// chains down to the *http.MaxBytesError the MaxBytesReader injects or
// the connection's os.ErrDeadlineExceeded, so no fragile message
// matching is needed (or correct: a translated or coincidental
// "request body too large" message must not turn a 400 into a 413).
func bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
	case errors.Is(err, os.ErrDeadlineExceeded):
		http.Error(w, timedOut, http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// runError answers a cleaning run that failed. Under SkipStage only the
// request's context stops one: 503, "request timed out" at the
// deadline, the context's reason when the client went away.
func runError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		http.Error(w, timedOut, http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
}

func handleAssess(w http.ResponseWriter, r *http.Request) {
	if !allowed(w, r, http.MethodPost) {
		return
	}
	sc := getScratch()
	defer sc.release()
	ds, err := sc.trajectoryDataset(r)
	if err != nil {
		bodyError(w, err)
		return
	}
	sc.writeJSON(w, http.StatusOK, map[string]interface{}{
		"trajectories": len(ds.Trajectories),
		"assessment":   assessmentJSON(ds.Assess()),
	})
}

func (s *Service) handleClean(w http.ResponseWriter, r *http.Request) {
	if !allowed(w, r, http.MethodPost) {
		return
	}
	sc := getScratch()
	ds, err := sc.trajectoryDataset(r)
	if err != nil {
		sc.release()
		bodyError(w, err)
		return
	}
	sc.sink = cleanSink{rows: &sc.rows, w: w}
	_, _, err = core.PlanAndStream(r.Context(), s.cleaningRunner(), ds, core.DefaultTargets(), 3, &sc.sink)
	switch {
	case err == nil:
		// Every worker of the run has returned. A failed run leaves its
		// scratch to the GC: a worker it abandoned may still read the
		// points and write rows.
		sc.release()
	case sc.sink.werr != nil:
		// Headers are gone, so the status cannot change — but a
		// mid-stream write failure (client hung up, connection reset)
		// must not vanish: it is the signal that clients are receiving
		// truncated cleaned data.
		s.writeError(r, sc.sink.werr)
	case sc.rows.wrote == 0:
		runError(w, err)
	default:
		// The deadline passed after the first byte. The 200 is long
		// gone, so the response is cut, and the client sees a failed
		// read rather than a clean end short of its trajectories.
		s.logf("request %s: clean stopped mid-response: %v", requestID(r), err)
		panic(http.ErrAbortHandler)
	}
}

// cleanSink streams a /v1/clean answer as the runner cleans it: the
// runner's worker appends each cleaned trajectory's rows to the row
// buffer, and each full slab is written by the handler's goroutine, the
// only one that writes the response. The status and headers —
// X-Sidq-Stages among them — go out with the first slab, so a run that
// fails before it can still be answered with an error.
type cleanSink struct {
	rows   *rowBuf
	w      http.ResponseWriter
	stages string
	werr   error // the write that failed
}

// Begin implements core.Sink.
func (c *cleanSink) Begin(stages []core.Stage) {
	c.stages = stageNames(stages)
	c.rows.buf = append(c.rows.buf[:0], trajectory.CSVHeader...)
}

// Put implements core.Sink: trajectory.WriteCSV's rows, a slab handed
// over whenever RowFlushBytes of them are waiting.
func (c *cleanSink) Put(tr *trajectory.Trajectory, pts []trajectory.Point, flush func() error) error {
	return c.rows.appendCSV(tr.ID, pts, flush)
}

// Flush implements core.Sink.
func (c *cleanSink) Flush() error {
	if c.rows.wrote == 0 {
		h := c.w.Header()
		h.Set("Content-Type", "text/csv")
		h.Set("X-Sidq-Stages", c.stages)
	}
	err := c.rows.flushTo(c.w, 0)
	if err != nil {
		c.werr = err
	}
	return err
}

// writeError records a mid-stream response write failure: one log line
// tagged with the request ID and a bump of the write-errors counter.
func (s *Service) writeError(r *http.Request, err error) {
	s.metrics.Counter(mWriteErrs).Inc()
	s.logf("request %s: response write failed: %v", requestID(r), err)
}

func handleReadingsAssess(w http.ResponseWriter, r *http.Request) {
	if !allowed(w, r, http.MethodPost) {
		return
	}
	rs, err := stid.ReadCSV(r.Body)
	if err != nil {
		bodyError(w, fmt.Errorf("parse readings csv: %w", err))
		return
	}
	ds := &core.Dataset{Readings: rs}
	_, rd := ds.AssessParts()
	sc := getScratch()
	defer sc.release()
	sc.writeJSON(w, http.StatusOK, map[string]interface{}{
		"readings":   len(rs),
		"assessment": assessmentJSON(rd),
	})
}

func (s *Service) handleReadingsClean(w http.ResponseWriter, r *http.Request) {
	if !allowed(w, r, http.MethodPost) {
		return
	}
	rs, err := stid.ReadCSV(r.Body)
	if err != nil {
		bodyError(w, fmt.Errorf("parse readings csv: %w", err))
		return
	}
	ds := &core.Dataset{Readings: rs}
	stages := core.ReadingsStages()
	cleaned, _, err := s.cleaningRunner().Run(r.Context(), ds, stages)
	if err != nil {
		runError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("X-Sidq-Stages", stageNames(stages))
	if err := stid.WriteCSV(w, cleaned.Readings); err != nil {
		s.writeError(r, err)
	}
}

// stageNames is the X-Sidq-Stages value of a cleaning response: the
// stages run, by name, comma-separated.
func stageNames(stages []core.Stage) string {
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	return strings.Join(names, ",")
}

// allowed answers 405 unless the request uses method.
func allowed(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
	return r.Method == method
}
