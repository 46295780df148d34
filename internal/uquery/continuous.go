package uquery

import (
	"math"

	"sidq/internal/geo"
	"sidq/internal/stream"
)

// SafeRegionMonitor maintains a continuous range query over moving
// objects with safe-region communication suppression: each object is
// assigned a circular safe region (centered at its last report, with
// radius equal to the distance from that report to the query
// boundary); the object transmits only when it leaves the region, at
// which point its membership cannot have changed in between. The
// monitor counts suppressed vs transmitted updates — the communication
// saving that motivates safe regions.
type SafeRegionMonitor struct {
	query   geo.Rect
	last    map[string]geo.Point
	radius  map[string]float64
	inside  map[string]bool
	reports int
	updates int
}

// NewSafeRegionMonitor returns a monitor for the given query rectangle.
func NewSafeRegionMonitor(query geo.Rect) *SafeRegionMonitor {
	return &SafeRegionMonitor{
		query:  query,
		last:   map[string]geo.Point{},
		radius: map[string]float64{},
		inside: map[string]bool{},
	}
}

// boundaryDist returns the distance from p to the query boundary.
func (m *SafeRegionMonitor) boundaryDist(p geo.Point) float64 {
	if m.query.Contains(p) {
		// Distance to the nearest edge from inside.
		return math.Min(
			math.Min(p.X-m.query.Min.X, m.query.Max.X-p.X),
			math.Min(p.Y-m.query.Min.Y, m.query.Max.Y-p.Y),
		)
	}
	return m.query.DistToPoint(p)
}

// Update processes an object's true position at a tick. It returns
// whether the object had to communicate. Object membership in the
// result set is exact whenever the object's true position respects its
// safe region (which the construction guarantees).
func (m *SafeRegionMonitor) Update(id string, pos geo.Point) (communicated bool) {
	m.updates++
	lastPos, known := m.last[id]
	if known && pos.Dist(lastPos) <= m.radius[id] {
		return false // inside the safe region: suppressed
	}
	// Report: recenter the safe region.
	m.reports++
	m.last[id] = pos
	m.radius[id] = m.boundaryDist(pos)
	m.inside[id] = m.query.Contains(pos)
	return true
}

// Result returns the ids currently reported inside the query.
func (m *SafeRegionMonitor) Result() []string {
	var out []string
	for id, in := range m.inside {
		if in {
			out = append(out, id)
		}
	}
	sortStringsInPlace(out)
	return out
}

// Savings returns the fraction of updates suppressed, and the raw
// counts.
func (m *SafeRegionMonitor) Savings() (frac float64, reports, updates int) {
	if m.updates == 0 {
		return 0, 0, 0
	}
	return 1 - float64(m.reports)/float64(m.updates), m.reports, m.updates
}

func sortStringsInPlace(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// PointEvent is a location update flowing through a stream query.
type PointEvent struct {
	ID  string
	Pos geo.Point
}

// StreamRangeCounter answers per-window range-count queries over an
// out-of-order stream of location updates: a bounded-lateness reorderer
// restores event time, tumbling windows partition it, and each closed
// window reports the number of distinct objects seen inside the query
// rectangle.
type StreamRangeCounter struct {
	query   geo.Rect
	reorder *stream.Reorderer[PointEvent]
	windows *stream.TumblingWindows[PointEvent]
}

// WindowCount is one closed-window answer.
type WindowCount struct {
	Start, End float64
	Count      int // distinct objects inside the rect during the window
}

// NewStreamRangeCounter builds a counter with the given window width
// and allowed lateness (both seconds).
func NewStreamRangeCounter(query geo.Rect, windowWidth, lateness float64) *StreamRangeCounter {
	return &StreamRangeCounter{
		query:   query,
		reorder: stream.NewReorderer[PointEvent](lateness),
		windows: stream.NewTumblingWindows[PointEvent](windowWidth),
	}
}

// Push ingests one possibly out-of-order update and returns any window
// results it closed.
func (c *StreamRangeCounter) Push(t float64, ev PointEvent) []WindowCount {
	var closed []stream.Window[PointEvent]
	for _, e := range c.reorder.Push(stream.Event[PointEvent]{Time: t, Value: ev}) {
		closed = append(closed, c.windows.Push(e)...)
	}
	return c.collect(closed)
}

// Flush drains the reorderer and closes the final window.
func (c *StreamRangeCounter) Flush() []WindowCount {
	var closed []stream.Window[PointEvent]
	for _, e := range c.reorder.Flush() {
		closed = append(closed, c.windows.Push(e)...)
	}
	closed = append(closed, c.windows.Flush()...)
	return c.collect(closed)
}

// Late returns the number of events dropped as too late.
func (c *StreamRangeCounter) Late() int { return c.reorder.LateCount() }

func (c *StreamRangeCounter) collect(closed []stream.Window[PointEvent]) []WindowCount {
	var out []WindowCount
	for _, w := range closed {
		seen := map[string]bool{}
		for _, e := range w.Events {
			if c.query.Contains(e.Value.Pos) {
				seen[e.Value.ID] = true
			}
		}
		out = append(out, WindowCount{Start: w.Start, End: w.End, Count: len(seen)})
	}
	return out
}
