package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"
)

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
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

// withRecovery converts a handler panic into a 500 while nothing of the
// response has been written. Once the status is out it cannot change,
// so the response is cut instead (http.ErrAbortHandler, which net/http
// neither logs nor answers): the client sees a failed read, not a clean
// end to a response that is short or has an error appended. A handler
// that cuts its own response with http.ErrAbortHandler passes through.
// w is withRequestID's recorder, which knows whether the status is out.
func (s *Service) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p != http.ErrAbortHandler {
				s.metrics.Counter(mSrvPanics).Inc()
				s.logf("request %s: panic recovered: %v", requestID(r), p)
				if rec, ok := w.(*statusRecorder); !ok || rec.status == 0 {
					http.Error(w, "internal server error", http.StatusInternalServerError)
					return
				}
			}
			panic(http.ErrAbortHandler)
		}()
		next.ServeHTTP(w, r)
	})
}

// withRequestID assigns every request a unique ID (honouring an
// inbound X-Request-ID), echoes it on the response, and writes one
// access-log line per request, a cut response's included.
func (s *Service) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			elapsed := time.Since(start)
			s.observeRequest(routeLabel(r.URL.Path), rec.status, elapsed.Nanoseconds())
			s.logf("%s %s %s -> %d (%s)", id, r.Method, r.URL.Path, rec.status, elapsed.Round(time.Microsecond))
		}()
		next.ServeHTTP(rec, r)
	})
}

// withBodyLimit caps request bodies; a reader crossing the limit makes
// the CSV parsers fail, which the handlers surface as 400s, and the
// net/http machinery additionally flags the connection to close.
func (s *Service) withBodyLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			if r.ContentLength > s.cfg.MaxBodyBytes {
				http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
				return
			}
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// withConcurrencyLimit bounds the number of in-flight requests;
// excess load is shed with 503 + Retry-After rather than queued
// without bound.
func (s *Service) withConcurrencyLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			g := s.metrics.Gauge(mInFlight)
			g.Inc()
			defer func() { g.Dec(); <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			s.metrics.Counter(mShed).Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "too many in-flight requests", http.StatusServiceUnavailable)
		}
	})
}

// withTimeout sets each request's deadline where it acts: the request's
// context ends RequestTimeout from now, and so does the read of its
// body. A handler that notices it — a body read fails, or the clean
// runner stops between stages — answers 503 "request timed out"; an
// engine call already begun runs to its true answer, and the handler
// sends that answer. The handler writes straight to the client, and no
// write deadline is set, so a late answer still goes out.
func (s *Service) withTimeout(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(s.cfg.RequestTimeout)
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != http.NoBody {
			// Only a request with a body. net/http reads the connection
			// of one without in the background from the start, to notice
			// the client leaving, and a deadline firing on that read
			// would cancel the connection's context: every later request
			// on a kept-alive connection would start cancelled. It lifts
			// the deadline itself once a body has been read to its end.
			// A writer with no connection behind it (a test's) refuses.
			_ = http.NewResponseController(w).SetReadDeadline(deadline)
		}
		next.ServeHTTP(w, r)
	})
}

const timedOut = "request timed out" // the 503 text of a request that met its deadline

// logf writes to the service's logger (withDefaults has set one).
func (s *Service) logf(format string, args ...interface{}) { s.cfg.Logger.Printf(format, args...) }

// DiscardLogger silences the access log (tests use it).
func DiscardLogger() *log.Logger { return log.New(io.Discard, "", 0) }
