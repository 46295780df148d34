// Package stid defines the spatiotemporal IoT data (STID) model shared
// by the quality-management and exploitation packages: a Reading is one
// thematic measurement (e.g. PM2.5, temperature) taken by a sensor at a
// location and time; a Series is a time-ordered sequence of readings
// from one sensor.
package stid

import (
	"sort"

	"sidq/internal/geo"
)

// Reading is a single spatiotemporal measurement.
type Reading struct {
	SensorID string
	Pos      geo.Point
	T        float64 // seconds since epoch
	Value    float64 // thematic value
}

// Series is a time-ordered sequence of readings from one sensor.
type Series struct {
	SensorID string
	Pos      geo.Point
	Readings []Reading
}

// NewSeries groups readings by sensor id into time-sorted series,
// ordered by sensor id for determinism.
func NewSeries(readings []Reading) []Series {
	byID := map[string][]Reading{}
	for _, r := range readings {
		byID[r.SensorID] = append(byID[r.SensorID], r)
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Series, 0, len(ids))
	for _, id := range ids {
		rs := byID[id]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].T < rs[j].T })
		s := Series{SensorID: id, Readings: rs}
		if len(rs) > 0 {
			s.Pos = rs[0].Pos
		}
		out = append(out, s)
	}
	return out
}

// Times returns the timestamps of the series in order.
func (s Series) Times() []float64 {
	out := make([]float64, len(s.Readings))
	for i, r := range s.Readings {
		out[i] = r.T
	}
	return out
}

// At returns the reading nearest in time to t. ok is false for an
// empty series.
func (s Series) At(t float64) (Reading, bool) {
	if len(s.Readings) == 0 {
		return Reading{}, false
	}
	i := sort.Search(len(s.Readings), func(i int) bool { return s.Readings[i].T >= t })
	if i == 0 {
		return s.Readings[0], true
	}
	if i == len(s.Readings) {
		return s.Readings[len(s.Readings)-1], true
	}
	if t-s.Readings[i-1].T <= s.Readings[i].T-t {
		return s.Readings[i-1], true
	}
	return s.Readings[i], true
}

// TimeBounds returns the first and last timestamps; ok is false for an
// empty slice of readings.
func TimeBounds(readings []Reading) (t0, t1 float64, ok bool) {
	if len(readings) == 0 {
		return 0, 0, false
	}
	t0, t1 = readings[0].T, readings[0].T
	for _, r := range readings[1:] {
		if r.T < t0 {
			t0 = r.T
		}
		if r.T > t1 {
			t1 = r.T
		}
	}
	return t0, t1, true
}
