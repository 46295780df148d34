// Package trajectory defines the core moving-object data model used
// throughout sidq: timestamped location sequences, kinematic
// derivations (speed, heading), resampling and thinning, stay-point
// detection, and trajectory similarity measures.
//
// Time is represented as float64 seconds since an arbitrary epoch; all
// generators and cleaners in this repository use the same convention,
// which keeps the math simple and the tests deterministic.
package trajectory

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sidq/internal/geo"
)

// ErrTooShort is returned by operations that need a minimum number of points.
var ErrTooShort = errors.New("trajectory: too few points")

// Point is one timestamped location sample of a moving object.
type Point struct {
	T   float64   // seconds since epoch
	Pos geo.Point // planar meters
}

// Trajectory is a time-ordered sequence of location samples for one object.
type Trajectory struct {
	ID     string
	Points []Point
}

// New returns a trajectory with the given id and points, sorted by time.
// Already-ordered input (the common case on every CSV decode and stream
// flush) is detected with one linear pass and copied without the
// stable-sort; out-of-order or NaN-stamped input takes the sorting
// path, whose output is identical to what the fast path produces for
// sorted input (a stable sort of sorted data is the identity).
func New(id string, pts []Point) *Trajectory {
	tr := &Trajectory{ID: id, Points: append([]Point(nil), pts...)}
	sortByTime(tr.Points)
	return tr
}

// sortByTime stable-sorts pts by time in place, skipping the sort when
// pointsSorted says they are already in order.
func sortByTime(pts []Point) {
	if !pointsSorted(pts) {
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	}
}

// pointsSorted reports whether pts are in non-decreasing time order —
// one linear pass, the fast-path check sortByTime uses to skip the
// stable sort. Equal stamps are in order (a stable sort keeps
// them). NaN stamps report false, explicitly because every comparison
// with NaN is false: such input keeps taking the sorting path, which
// alone reproduces where sort.SliceStable puts a NaN.
func pointsSorted(pts []Point) bool {
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T || math.IsNaN(pts[i].T) {
			return false
		}
	}
	if len(pts) > 0 && math.IsNaN(pts[0].T) {
		return false
	}
	return true
}

// Len returns the number of samples.
func (tr *Trajectory) Len() int { return len(tr.Points) }

// Clone returns a deep copy of the trajectory.
func (tr *Trajectory) Clone() *Trajectory {
	return &Trajectory{ID: tr.ID, Points: append([]Point(nil), tr.Points...)}
}

// Duration returns the covered time span in seconds (0 if < 2 points).
func (tr *Trajectory) Duration() float64 {
	if len(tr.Points) < 2 {
		return 0
	}
	return tr.Points[len(tr.Points)-1].T - tr.Points[0].T
}

// Polyline returns the spatial footprint of the trajectory.
func (tr *Trajectory) Polyline() geo.Polyline {
	pl := make(geo.Polyline, len(tr.Points))
	for i, p := range tr.Points {
		pl[i] = p.Pos
	}
	return pl
}

// TimeBounds returns the first and last sample times. ok is false for
// an empty trajectory.
func (tr *Trajectory) TimeBounds() (t0, t1 float64, ok bool) {
	if len(tr.Points) == 0 {
		return 0, 0, false
	}
	return tr.Points[0].T, tr.Points[len(tr.Points)-1].T, true
}

// Speeds returns the per-segment speeds in m/s: element i is the speed
// between points i and i+1. Segments with non-increasing timestamps
// report +Inf speed so constraint checks can flag them.
func (tr *Trajectory) Speeds() []float64 {
	if len(tr.Points) < 2 {
		return nil
	}
	out := make([]float64, len(tr.Points)-1)
	for i := 1; i < len(tr.Points); i++ {
		dt := tr.Points[i].T - tr.Points[i-1].T
		d := tr.Points[i-1].Pos.Dist(tr.Points[i].Pos)
		if dt <= 0 {
			out[i-1] = math.Inf(1)
		} else {
			out[i-1] = d / dt
		}
	}
	return out
}

// LocationAt returns the linearly interpolated position at time t.
// Times outside the covered span clamp to the endpoints. ok is false
// for an empty trajectory.
func (tr *Trajectory) LocationAt(t float64) (geo.Point, bool) {
	n := len(tr.Points)
	if n == 0 {
		return geo.Point{}, false
	}
	if t <= tr.Points[0].T {
		return tr.Points[0].Pos, true
	}
	if t >= tr.Points[n-1].T {
		return tr.Points[n-1].Pos, true
	}
	// Binary search for the surrounding pair.
	i := sort.Search(n, func(i int) bool { return tr.Points[i].T >= t })
	a, b := tr.Points[i-1], tr.Points[i]
	if b.T == a.T {
		return b.Pos, true
	}
	f := (t - a.T) / (b.T - a.T)
	return a.Pos.Lerp(b.Pos, f), true
}

// Slice returns the sub-trajectory with sample times in [t0, t1].
func (tr *Trajectory) Slice(t0, t1 float64) *Trajectory {
	out := &Trajectory{ID: tr.ID}
	for _, p := range tr.Points {
		if p.T >= t0 && p.T <= t1 {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Enters reports whether tr's interpolated position lies in rect at
// some time in [t0, t1]: a sample inside both, or a motion segment
// whose chord, clipped to the window, crosses rect. An inverted window
// or an empty rect is entered by nothing.
func (tr *Trajectory) Enters(rect geo.Rect, t0, t1 float64) bool {
	if t1 < t0 || rect.IsEmpty() {
		return false
	}
	pts := tr.Points
	for i := 0; i < len(pts); i++ {
		if pts[i].T >= t0 && pts[i].T <= t1 && rect.Contains(pts[i].Pos) {
			return true
		}
		if i == 0 {
			continue
		}
		a, b := pts[i-1], pts[i]
		if b.T < t0 || a.T > t1 || a.T == b.T {
			continue
		}
		// Clip the segment to the time window and test the clipped chord.
		loT := math.Max(a.T, t0)
		hiT := math.Min(b.T, t1)
		fa := (loT - a.T) / (b.T - a.T)
		fb := (hiT - a.T) / (b.T - a.T)
		pa := a.Pos.Lerp(b.Pos, fa)
		pb := a.Pos.Lerp(b.Pos, fb)
		if segmentIntersectsRect(pa, pb, rect) {
			return true
		}
	}
	return false
}

// segmentIntersectsRect reports whether the segment pa-pb intersects
// rect, using a standard slab (Liang-Barsky style) clip test.
func segmentIntersectsRect(pa, pb geo.Point, rect geo.Rect) bool {
	if rect.Contains(pa) || rect.Contains(pb) {
		return true
	}
	d := pb.Sub(pa)
	tmin, tmax := 0.0, 1.0
	for _, axis := range [2][3]float64{
		{d.X, pa.X - rect.Min.X, rect.Max.X - pa.X},
		{d.Y, pa.Y - rect.Min.Y, rect.Max.Y - pa.Y},
	} {
		dir, toMin, toMax := axis[0], axis[1], axis[2]
		if dir == 0 {
			if toMin < 0 || toMax < 0 {
				return false
			}
			continue
		}
		t1 := -toMin / dir // param where axis = min
		t2 := toMax / dir  // param where axis = max
		lo, hi := t1, t2
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo > tmin {
			tmin = lo
		}
		if hi < tmax {
			tmax = hi
		}
		if tmin > tmax {
			return false
		}
	}
	return true
}

// MaxResamplePoints bounds the number of samples Resample will
// interpolate for one trajectory. The interval reaches Resample from
// request parameters, so without a bound a two-point trajectory and a
// tiny interval turn a few bytes of input into gigabytes of output.
const MaxResamplePoints = 1 << 20

// ErrResampleTooDense reports a resample interval too small for the
// trajectory's time span: the output would exceed MaxResamplePoints,
// or the interval is below the timestamps' floating-point resolution.
var ErrResampleTooDense = errors.New("trajectory: resample interval too small for the time span")

// Resample returns a new trajectory sampled every dt seconds across the
// covered span using linear interpolation. The last original timestamp
// is always included. It fails with ErrResampleTooDense rather than
// produce more than MaxResamplePoints samples.
func (tr *Trajectory) Resample(dt float64) (*Trajectory, error) {
	if len(tr.Points) < 2 {
		return nil, ErrTooShort
	}
	if dt <= 0 {
		return nil, fmt.Errorf("trajectory: non-positive resample interval %v", dt)
	}
	t0, t1, _ := tr.TimeBounds()
	// Written as a negated <= so a NaN or infinite span is refused too.
	if !((t1-t0)/dt <= MaxResamplePoints) {
		return nil, ErrResampleTooDense
	}
	out := &Trajectory{ID: tr.ID}
	for t := t0; t < t1; t += dt {
		if t+dt == t {
			// dt is below the spacing of float64 values near t, so the
			// loop would never reach t1.
			return nil, ErrResampleTooDense
		}
		pos, _ := tr.LocationAt(t)
		out.Points = append(out.Points, Point{T: t, Pos: pos})
	}
	last := tr.Points[len(tr.Points)-1]
	out.Points = append(out.Points, last)
	return out, nil
}

// Thin returns a copy keeping every k-th point (and always the last),
// simulating low-sampling-rate collection.
func (tr *Trajectory) Thin(k int) *Trajectory {
	if k <= 1 || len(tr.Points) == 0 {
		return tr.Clone()
	}
	out := &Trajectory{ID: tr.ID}
	for i := 0; i < len(tr.Points); i += k {
		out.Points = append(out.Points, tr.Points[i])
	}
	if lastKept := out.Points[len(out.Points)-1]; lastKept.T != tr.Points[len(tr.Points)-1].T {
		out.Points = append(out.Points, tr.Points[len(tr.Points)-1])
	}
	return out
}

// StayPoint is a detected dwell: the object stayed within Radius meters
// of Center between Start and End.
type StayPoint struct {
	Center     geo.Point
	Start, End float64
	Count      int // number of samples merged
}

// StayPoints detects dwells: maximal runs of samples that stay within
// radius meters of the run's anchor and last at least minDuration
// seconds. This is the classic stay-point detection used by semantic
// trajectory annotation.
func (tr *Trajectory) StayPoints(radius, minDuration float64) []StayPoint {
	var out []StayPoint
	pts := tr.Points
	i := 0
	for i < len(pts) {
		j := i + 1
		for j < len(pts) && pts[i].Pos.Dist(pts[j].Pos) <= radius {
			j++
		}
		// Run is pts[i:j].
		if dur := pts[j-1].T - pts[i].T; j-i >= 2 && dur >= minDuration {
			var cx, cy float64
			for _, p := range pts[i:j] {
				cx += p.Pos.X
				cy += p.Pos.Y
			}
			n := float64(j - i)
			out = append(out, StayPoint{
				Center: geo.Pt(cx/n, cy/n),
				Start:  pts[i].T,
				End:    pts[j-1].T,
				Count:  j - i,
			})
			i = j
			continue
		}
		i++
	}
	return out
}

// MeanSampleInterval returns the mean time gap between consecutive
// samples (0 if < 2 points).
func (tr *Trajectory) MeanSampleInterval() float64 {
	if len(tr.Points) < 2 {
		return 0
	}
	return tr.Duration() / float64(len(tr.Points)-1)
}
