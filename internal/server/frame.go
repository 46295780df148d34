package server

import (
	"cmp"
	"context"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"
)

// statusRecorder is the frame's handle on one request: the response
// status, for the access line and panic recovery, and the request's id
// and deadline, for the handlers that read them.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	id       string
	deadline time.Time // zero when RequestTimeout < 0
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP is the request frame: a request takes these steps in
// order, and the first that answers ends it. Its id, its series, its
// access line and panic recovery cover every answer; the probes skip
// the rest, so a saturated or draining service still answers its
// orchestrator.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The inbound X-Request-ID or the next req-NNNNNN, echoed. The
	// header's canonical spelling spares Get and Set a copy of it.
	rec := &statusRecorder{ResponseWriter: w, id: r.Header.Get("X-Request-Id")}
	if rec.id == "" {
		rec.id = newRequestID(s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-Id", rec.id)
	if s.cfg.RequestTimeout > 0 {
		rec.deadline = start.Add(s.cfg.RequestTimeout)
	}
	defer s.endRequest(rec, r, start)
	defer s.recoverPanic(rec)

	switch r.URL.Path {
	case "/v1/healthz":
		handleHealth(rec, r)
		return
	case "/v1/readyz":
		s.handleReady(rec, r)
		return
	case "/v1/metrics":
		s.handleMetrics(rec, r)
		return
	}
	// New work on a draining service never takes an in-flight slot, so
	// AwaitIdle waits only for work accepted before the drain began.
	if s.draining.Load() {
		s.metrics.Counter(mDrainRejected).Inc()
		rec.Header().Set("Connection", "close")
		http.Error(rec, "draining", http.StatusServiceUnavailable)
		return
	}
	// The deadline is a body's read deadline, decided before anything
	// wraps the body. A bodiless request gets none: one firing on
	// net/http's background read would cancel its kept-alive
	// connection's context. A test's writer refuses it.
	hasBody := r.Body != nil && r.Body != http.NoBody
	if hasBody && !rec.deadline.IsZero() {
		_ = http.NewResponseController(w).SetReadDeadline(rec.deadline)
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		s.metrics.Counter(mShed).Inc()
		rec.Header().Set("Retry-After", "1")
		http.Error(rec, "too many in-flight requests", http.StatusServiceUnavailable)
		return
	}
	g := s.metrics.Gauge(mInFlight)
	g.Inc()
	defer func() { g.Dec(); <-s.inflight }()
	// A body over the cap: 413 on its Content-Length, else the
	// MaxBytesReader's error, which bodyError answers 413. net/http keeps
	// its own handle on the body, so r's can be replaced in place.
	if hasBody {
		if r.ContentLength > s.cfg.MaxBodyBytes {
			http.Error(rec, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
	}
	s.mux.ServeHTTP(rec, r)
}

// endRequest records a finished request: its series, and its access
// line unless the logger discards it, so no argument is boxed for it.
func (s *Service) endRequest(rec *statusRecorder, r *http.Request, start time.Time) {
	status, elapsed := cmp.Or(rec.status, http.StatusOK), time.Since(start)
	s.observeRequest(routeLabel(r.URL.Path), status, elapsed.Nanoseconds())
	if s.cfg.Logger.Writer() != io.Discard {
		s.logf("%s %s %s -> %d (%s)", rec.id, r.Method, r.URL.Path, status, elapsed.Round(time.Microsecond))
	}
}

// recoverPanic converts a handler panic into a 500 while nothing of the
// response has been written. Once the status is out it cannot change,
// so the response is cut instead (http.ErrAbortHandler, which net/http
// neither logs nor answers): the client sees a failed read, not a clean
// end to a response that is short or has an error appended. A handler
// that cuts its own response with http.ErrAbortHandler passes through.
func (s *Service) recoverPanic(rec *statusRecorder) {
	p := recover()
	if p == nil {
		return
	}
	if p != http.ErrAbortHandler {
		s.metrics.Counter(mSrvPanics).Inc()
		s.logf("request %s: panic recovered: %v", rec.id, p)
		if rec.status == 0 {
			http.Error(rec, "internal server error", http.StatusInternalServerError)
			return
		}
	}
	panic(http.ErrAbortHandler)
}

// newRequestID is fmt.Sprintf("req-%06d", n), in one allocation.
func newRequestID(n uint64) string {
	var buf [20]byte
	d := strconv.AppendUint(buf[:0], n, 10)
	return "req-" + "000000"[min(len(d), 6):] + string(d)
}

// requestID is the id the frame gave the request w answers, or "".
func requestID(w http.ResponseWriter) string {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.id
	}
	return ""
}

// requestContext is r's context, ending at the request's deadline if
// it has one: what the clean routes hand the runner, which checks it
// between stages. The other routes take no context.
func requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc) {
	if rec, ok := w.(*statusRecorder); ok && !rec.deadline.IsZero() {
		return context.WithDeadline(r.Context(), rec.deadline)
	}
	return r.Context(), func() {}
}

const timedOut = "request timed out" // the 503 text of a request that met its deadline

// logf writes to the service's logger (withDefaults has set one).
func (s *Service) logf(format string, args ...interface{}) { s.cfg.Logger.Printf(format, args...) }

// DiscardLogger silences the access log (tests use it).
func DiscardLogger() *log.Logger { return log.New(io.Discard, "", 0) }
