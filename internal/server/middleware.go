package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"sync"
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

// withRecovery converts handler panics into 500s instead of letting
// them kill the connection (and, under http.Server's default behavior,
// spam the log with stacks while aborting the response mid-write).
func (s *Service) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Counter(mSrvPanics).Inc()
				s.logf("request %s: panic recovered: %v", requestID(r), p)
				// Best effort: if the handler already wrote, this is a no-op.
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withRequestID assigns every request a unique ID (honouring an
// inbound X-Request-ID), echoes it on the response, and writes one
// access-log line per request.
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
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.observeRequest(routeLabel(r.URL.Path), rec.status, elapsed.Nanoseconds())
		s.logf("%s %s %s -> %d (%s)", id, r.Method, r.URL.Path, rec.status, elapsed.Round(time.Microsecond))
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

// withTimeout bounds each request's total handling time, with
// http.TimeoutHandler's contract and a pooled writer in place of its
// private one: the handler runs on its own goroutine under the deadline
// context against a buffering writer, so headers and body reach the
// client only once it has returned; at expiry the client gets 503 and
// the handler's later writes fail with http.ErrHandlerTimeout; a handler
// panic is re-raised here, where withRecovery answers it.
func (s *Service) withTimeout(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		tw := timeoutWriters.Get().(*timeoutWriter)
		done := make(chan any, 1) // the handler's panic value; nil when it returned
		go func() {
			defer func() { done <- recover() }()
			next.ServeHTTP(tw, r)
		}()
		select {
		case p := <-done:
			if p != nil {
				panic(p)
			}
			maps.Copy(w.Header(), tw.h)
			if tw.code == 0 {
				tw.code = http.StatusOK
			}
			w.WriteHeader(tw.code)
			_, _ = w.Write(tw.buf.Bytes()) // a failed write means the client is gone
			// Only here has the handler goroutine returned. After a timeout
			// it may still be writing, so that writer is left to the GC.
			if tw.buf.Cap() <= maxPooledBuf {
				clear(tw.h)
				tw.buf.Reset()
				tw.code = 0
				timeoutWriters.Put(tw)
			}
		case <-ctx.Done():
			tw.mu.Lock()
			defer tw.mu.Unlock()
			w.WriteHeader(http.StatusServiceUnavailable)
			if tw.err = ctx.Err(); tw.err == context.DeadlineExceeded {
				tw.err = http.ErrHandlerTimeout
				_, _ = io.WriteString(w, "request timed out")
			}
		}
	})
}

const maxPooledBuf = 1 << 20 // a buffer one big response or record grew past this is not pooled

// timeoutWriter buffers one response for withTimeout.
type timeoutWriter struct {
	h   http.Header
	buf bytes.Buffer

	mu   sync.Mutex // the expiry path sets err while the handler may be writing
	code int        // 0 until the handler writes a header or a byte
	err  error      // set at expiry; every later Write returns it
}

var timeoutWriters = sync.Pool{New: func() any { return &timeoutWriter{h: http.Header{}} }}

func (tw *timeoutWriter) Header() http.Header { return tw.h }

func (tw *timeoutWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.code == 0 {
		tw.code = code
	}
}

func (tw *timeoutWriter) Write(p []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return 0, tw.err
	}
	if tw.code == 0 {
		tw.code = http.StatusOK
	}
	return tw.buf.Write(p)
}

// logf writes to the service's logger (withDefaults has set one).
func (s *Service) logf(format string, args ...interface{}) { s.cfg.Logger.Printf(format, args...) }

// DiscardLogger silences the access log (tests use it).
func DiscardLogger() *log.Logger { return log.New(io.Discard, "", 0) }
