package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// family ordering, HELP/TYPE placement, label handling, cumulative
// histogram buckets, and value formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("sidq_demo_requests_total", "Requests served.")
	r.Counter(`sidq_demo_requests_total{route="/v1/assess",code="200"}`).Add(3)
	r.Counter(`sidq_demo_requests_total{route="/v1/clean",code="400"}`).Inc()
	r.Gauge("sidq_demo_in_flight").Inc()
	r.Gauge("sidq_demo_in_flight").Inc()
	h := r.Histogram(`sidq_demo_latency_ns{route="/v1/assess"}`)
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)
	r.Func("sidq_demo_uptime_seconds", FuncGauge, func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE sidq_demo_in_flight gauge
sidq_demo_in_flight 2
# TYPE sidq_demo_latency_ns histogram
sidq_demo_latency_ns_bucket{route="/v1/assess",le="0"} 0
sidq_demo_latency_ns_bucket{route="/v1/assess",le="1"} 1
sidq_demo_latency_ns_bucket{route="/v1/assess",le="3"} 2
sidq_demo_latency_ns_bucket{route="/v1/assess",le="7"} 2
sidq_demo_latency_ns_bucket{route="/v1/assess",le="15"} 2
sidq_demo_latency_ns_bucket{route="/v1/assess",le="31"} 2
sidq_demo_latency_ns_bucket{route="/v1/assess",le="63"} 2
sidq_demo_latency_ns_bucket{route="/v1/assess",le="127"} 3
sidq_demo_latency_ns_bucket{route="/v1/assess",le="+Inf"} 3
sidq_demo_latency_ns_sum{route="/v1/assess"} 104
sidq_demo_latency_ns_count{route="/v1/assess"} 3
# HELP sidq_demo_requests_total Requests served.
# TYPE sidq_demo_requests_total counter
sidq_demo_requests_total{route="/v1/assess",code="200"} 3
sidq_demo_requests_total{route="/v1/clean",code="400"} 1
# TYPE sidq_demo_uptime_seconds gauge
sidq_demo_uptime_seconds 1.5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

var seriesLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9][0-9.e+-]*|\+Inf|-Inf|NaN)$`)

// TestWritePrometheusWellFormed checks that every emitted line is
// either a comment or a parseable series line, and that histogram
// buckets are cumulative (monotone non-decreasing).
func TestWritePrometheusWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(7)
	h := r.Histogram("b_ns")
	for i := int64(1); i < 10000; i *= 3 {
		h.Observe(i)
	}
	r.Gauge(`c{x="1"}`).Dec() // a negative value
	r.Func("d_total", FuncCounter, func() float64 { return 12 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var prevBucket uint64
	inBuckets := false
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !seriesLine.MatchString(line) {
			t.Errorf("malformed series line: %q", line)
		}
		if strings.HasPrefix(line, "b_ns_bucket") {
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse bucket line %q: %v", line, err)
			}
			if inBuckets && v < prevBucket {
				t.Errorf("bucket counts not cumulative: %d after %d in %q", v, prevBucket, line)
			}
			prevBucket, inBuckets = v, true
		} else {
			inBuckets = false
		}
	}
}
