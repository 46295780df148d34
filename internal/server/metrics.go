package server

// HTTP-layer observability. Every service carries its own
// obs.Registry (read through Service.Metrics) that the middleware stack
// feeds: per-route request counters and latency histograms, the
// in-flight gauge, shed and panic counters. The runner's families go
// into the same registry here, and the session engine adds its own
// (stream, store, roadnet) when it is handed it, so a single
// GET /v1/metrics scrape covers the whole middleware.

import (
	"net/http"
	"strconv"
	"strings"

	"sidq/internal/core"
	"sidq/internal/obs"
)

const (
	mRequests      = "sidq_server_requests_total"
	mLatency       = "sidq_server_request_latency_ns"
	mInFlight      = "sidq_server_in_flight"
	mShed          = "sidq_server_shed_total"
	mDrainRejected = "sidq_server_drain_rejected_total"
	mSrvPanics     = "sidq_server_panics_total"
	mWriteErrs     = "sidq_http_write_errors_total"
)

// knownRoutes is the closed label set for the route label; anything
// else (404 probes, scanners) collapses into "other" so request paths
// cannot explode series cardinality.
var knownRoutes = map[string]bool{
	"/v1/assess":          true,
	"/v1/clean":           true,
	"/v1/readings/assess": true,
	"/v1/readings/clean":  true,
	"/v1/taxonomy":        true,
	"/v1/healthz":         true,
	"/v1/readyz":          true,
	"/v1/metrics":         true,
	"/v1/stream/open":     true,
	"/v1/stream/ingest":   true,
	"/v1/history/range":   true,
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	// Streaming paths embed the session id; collapse them to the
	// per-operation labels so ids cannot explode series cardinality.
	if strings.HasPrefix(path, "/v1/stream/") {
		if strings.HasSuffix(path, "/results") {
			return "/v1/stream/results"
		}
		return "/v1/stream/session"
	}
	return "other"
}

// initMetrics registers HELP text and the shell's families so the very
// first scrape is complete even before any traffic.
func (s *Service) initMetrics() {
	reg := s.metrics
	reg.Help(mRequests, "HTTP requests served, by route and status.")
	reg.Help(mLatency, "HTTP request handling latency in nanoseconds, by route.")
	reg.Help(mInFlight, "Requests currently being handled.")
	reg.Help(mShed, "Requests shed with 503 by the concurrency limiter.")
	reg.Help(mDrainRejected, "New work requests rejected with 503 while draining for shutdown.")
	reg.Help(mSrvPanics, "Handler panics recovered by the middleware.")
	reg.Help(mWriteErrs, "Mid-stream response body write failures (client gone, connection reset).")
	reg.Gauge(mInFlight)
	reg.Counter(mShed)
	reg.Counter(mDrainRejected)
	reg.Counter(mSrvPanics)
	reg.Counter(mWriteErrs)
	core.InitRunnerMetrics(reg)
}

// observeRequest records one finished request.
func (s *Service) observeRequest(route string, status int, durNs int64) {
	s.metrics.Counter(mRequests + `{route="` + route + `",status="` + strconv.Itoa(status) + `"}`).Inc()
	s.metrics.Histogram(mLatency + `{route="` + route + `"}`).Observe(durNs)
}

// Metrics returns the service's registry, for embedding callers that
// want to add their own series or scrape programmatically.
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// cleaningRunner is the per-request runner for the cleaning endpoints:
// skip-stage policy (one failing stage must not fail the request),
// reporting stage metrics into the service registry.
func (s *Service) cleaningRunner() *core.Runner {
	return &core.Runner{Policy: core.SkipStage, Obs: s.metrics}
}

// handleMetrics serves the Prometheus text exposition. It sits on the
// probes path, bypassing the limiter and timeout, so a saturated or
// wedged service can still be scraped — exactly when the numbers
// matter most.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = s.metrics.WritePrometheus(w)
}
