// Package obs is sidq's dependency-free observability substrate: a
// metrics registry of atomic counters, gauges, and lock-free sharded
// histograms with fixed log-scale buckets, a Prometheus-text exposition
// writer, and a lightweight structured trace API.
//
// Design rules (see DESIGN.md "Observability"):
//
//   - Zero overhead when unobserved. Hot paths guard every metric and
//     trace emission behind a nil check (or a single atomic.Bool load
//     for package-level totals), so a process that never attaches a
//     registry or sink pays nothing beyond those checks.
//   - Series are identified by their full Prometheus series name,
//     labels included — e.g. `sidq_runner_stage_total{stage="smoothing",
//     outcome="ok"}`. The registry get-or-creates by that exact string;
//     callers on hot paths resolve once and keep the pointer.
//   - Cardinality is bounded by construction: label values come from
//     closed sets (stage names in a pipeline, the server's route table,
//     outcome enums), never from user input or unbounded ids.
//   - Durations are recorded in nanoseconds into `*_ns` histograms;
//     bucket upper bounds are 2^i-1 so the exposition stays integral.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FuncKind is the exposition TYPE of a callback series.
type FuncKind string

// Callback series kinds.
const (
	FuncCounter FuncKind = "counter"
	FuncGauge   FuncKind = "gauge"
)

type funcSeries struct {
	kind FuncKind
	fn   func() float64
}

// Registry holds named metric series. Series are get-or-created by
// their full name (family plus optional {label="value",...} suffix);
// looking the same name up twice returns the same metric, so
// components can resolve their series once at setup and share them.
// All methods are safe for concurrent use; reads on the hot path take
// only an RWMutex read lock (and callers are expected to cache the
// returned pointer anyway).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]funcSeries
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]funcSeries{},
		help:     map[string]string{},
	}
}

// checkName panics on a series name the exposition writer could not
// render: the family must be a valid Prometheus metric name and any
// label block must close.
func checkName(name string) {
	fam := familyOf(name)
	if fam == "" {
		panic("obs: empty metric name")
	}
	for i, r := range fam {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric family %q", fam))
		}
	}
	if i := strings.IndexByte(name, '{'); i >= 0 && !strings.HasSuffix(name, "}") {
		panic(fmt.Sprintf("obs: unterminated label block in %q", name))
	}
}

// Counter returns the counter series with the given full name,
// creating it on first use. Panics if the name is already registered
// as a different metric type.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.checkFree(name, "counter")
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge series with the given full name, creating it
// on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.checkFree(name, "gauge")
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram series with the given full name,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	r.checkFree(name, "histogram")
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Func registers a callback series evaluated at exposition time — the
// bridge for components that keep their own atomic totals (the roadnet
// engine, the stream package). Registering the same name again
// replaces the callback.
func (r *Registry) Func(name string, kind FuncKind, fn func() float64) {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.funcs[name]; !exists {
		r.checkFree(name, "func")
	}
	r.funcs[name] = funcSeries{kind: kind, fn: fn}
}

// checkFree panics when name is already held by another metric type.
// Caller holds r.mu.
func (r *Registry) checkFree(name, want string) {
	have := ""
	switch {
	case r.counters[name] != nil:
		have = "counter"
	case r.gauges[name] != nil:
		have = "gauge"
	case r.hists[name] != nil:
		have = "histogram"
	default:
		if _, ok := r.funcs[name]; ok {
			have = "func"
		}
	}
	if have != "" && have != want {
		panic(fmt.Sprintf("obs: series %q already registered as a %s", name, have))
	}
}

// Help sets the HELP text for a metric family (the name before any
// label block). Families without help render no HELP line, which is
// valid exposition.
func (r *Registry) Help(family, text string) {
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// familyOf returns the metric family of a full series name: the prefix
// before the label block.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelsOf returns the inner label block of a series name ("" when the
// name is bare), without the surrounding braces.
func labelsOf(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// sortedKeys returns the map's keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
