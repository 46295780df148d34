// Package outlier implements the paper's §2.2.3 Outlier Removal task
// family, covering the tutorial's three trajectory-point method
// categories (constraint-based, statistics-based, prediction-based)
// and the temporal / spatial / spatiotemporal STID outlier detectors.
//
// Detectors return boolean flags aligned to the input so experiments
// can score precision and recall against injected ground truth;
// Remove/Repair helpers turn flags into cleaned datasets.
package outlier

import (
	"math"

	"sidq/internal/geo"
	"sidq/internal/refine"
	"sidq/internal/stats"
	"sidq/internal/trajectory"
)

// flagsInto returns a false-initialized flag slice of length n, reusing
// buf's capacity when possible. Detectors accept a reuse buffer so
// pipeline loops can run allocation-free in steady state.
func flagsInto(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// SpeedConstraint flags points that cannot be reached under the given
// maximum speed: a point is an outlier when the speeds both into and
// out of it violate the bound while its neighbors agree with each
// other. This is the classic constraint-based detector; it needs no
// training data but assumes locally valid neighbors. The scan keeps
// the two segment speeds it compares, so it needs no scratch. flags is
// an optional reuse buffer (nil allocates); the returned slice holds
// the result.
func SpeedConstraint(pts []trajectory.Point, maxSpeed float64, flags []bool) []bool {
	n := len(pts)
	flags = flagsInto(flags, n)
	if n < 3 || maxSpeed <= 0 {
		return flags
	}
	in := segSpeed(pts[0], pts[1])
	for i := 1; i < n-1; i++ {
		out := segSpeed(pts[i], pts[i+1])
		if in > maxSpeed && out > maxSpeed && segSpeed(pts[i-1], pts[i+1]) <= maxSpeed {
			flags[i] = true
		}
		in = out
	}
	// Endpoints: flag when the only adjacent segment is impossible and
	// the next interior point is consistent with its own neighbor.
	flags[0] = segSpeed(pts[0], pts[1]) > maxSpeed && segSpeed(pts[1], pts[2]) <= maxSpeed
	flags[n-1] = segSpeed(pts[n-2], pts[n-1]) > maxSpeed && segSpeed(pts[n-3], pts[n-2]) <= maxSpeed
	return flags
}

// segSpeed is the speed from a to b, +Inf when b is not later than a.
func segSpeed(a, b trajectory.Point) float64 {
	dt := b.T - a.T
	if dt <= 0 {
		return math.Inf(1)
	}
	return math.Hypot(a.Pos.X-b.Pos.X, a.Pos.Y-b.Pos.Y) / dt
}

// StatisticalOptions configures the statistics-based detector.
type StatisticalOptions struct {
	Window    int     // temporal neighbors each side (default 3)
	Threshold float64 // robust z-score cut (default 3.5)
}

// Statistical flags points whose deviation from their local
// neighborhood chord is extreme relative to the trajectory's robust
// deviation profile (median/MAD). It needs no physical bound but
// assumes most points are clean. flags is an optional reuse buffer
// (nil allocates); the returned slice holds the result. floats is the
// scan's float scratch, grown in place when short; nil allocates.
func Statistical(pts []trajectory.Point, opt StatisticalOptions, flags []bool, floats *[]float64) []bool {
	n := len(pts)
	flags = flagsInto(flags, n)
	if n < 5 {
		return flags
	}
	if opt.Window <= 0 {
		opt.Window = 3
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 3.5
	}
	// One block holds the scan's windows: the per-point features, the
	// copy the median and MAD select over, the forward distances and
	// one point's neighbour distances. fwd[i*W+k-1] is the distance
	// from point i to point i+k. Each pair is computed once and read
	// from both ends: Hypot takes absolute values first, so i→j and
	// j→i are the same bits.
	W := opt.Window
	buf := floatsInto(floats, n*(W+2)+2*W)
	feat, scr, fwd := buf[:n], buf[n:2*n], buf[2*n:n*(W+2)]
	ds := buf[n*(W+2) : n*(W+2)]
	for i := 0; i < n; i++ {
		xi, yi := pts[i].Pos.X, pts[i].Pos.Y
		for k := 1; k <= W && i+k < n; k++ {
			fwd[i*W+k-1] = math.Hypot(xi-pts[i+k].Pos.X, yi-pts[i+k].Pos.Y)
		}
	}
	for i := 0; i < n; i++ {
		ds = ds[:0]
		for k := 1; k <= W; k++ {
			if i-k >= 0 {
				ds = append(ds, fwd[(i-k)*W+k-1])
			}
			if i+k < n {
				ds = append(ds, fwd[i*W+k-1])
			}
		}
		feat[i], _ = stats.MedianInPlace(ds)
	}
	// Median and MAD over scr: MedianInPlace on a copy is
	// stats.Median, and on the deviations stats.MAD.
	copy(scr, feat)
	med, _ := stats.MedianInPlace(scr)
	for i, f := range feat {
		scr[i] = math.Abs(f - med)
	}
	m, _ := stats.MedianInPlace(scr)
	mad := 1.4826 * m
	if mad < 1e-9 {
		mad = 1e-9
	}
	for i, f := range feat {
		if (f-med)/mad > opt.Threshold {
			flags[i] = true
		}
	}
	return flags
}

// floatsInto returns n floats, reusing *buf's capacity and growing it
// when short; a nil buf allocates.
func floatsInto(buf *[]float64, n int) []float64 {
	if buf == nil {
		return make([]float64, n)
	}
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// PredictionOptions configures the prediction-based detector.
type PredictionOptions struct {
	ProcessNoise float64 // Kalman process noise (default 1)
	MeasNoise    float64 // measurement noise stddev (default 5)
	Threshold    float64 // innovation multiple of MeasNoise (default 5)
	Repair       bool    // replace outliers with the model prediction
}

// Prediction runs a Kalman filter over the trajectory and flags points
// whose innovation (distance from the motion prediction) exceeds
// Threshold * MeasNoise; flagged points do not update the filter. With
// Repair set, flagged points are replaced by the prediction, following
// the repair-with-predicted-value strategy. It returns the (possibly
// repaired) trajectory and the flags. A row with a non-finite
// coordinate is a missing measurement: the filter starts at the first
// finite fix, only predicts across such a row, and never restarts at
// one. A row with a non-finite stamp is a missing step: it is never
// flagged, and the filter neither predicts nor updates across it.
func Prediction(tr *trajectory.Trajectory, opt PredictionOptions) (*trajectory.Trajectory, []bool) {
	n := tr.Len()
	out := tr.Clone()
	flags := make([]bool, n)
	if n < 2 {
		return out, flags
	}
	if opt.ProcessNoise <= 0 {
		opt.ProcessNoise = 1
	}
	if opt.MeasNoise <= 0 {
		opt.MeasNoise = 5
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 5
	}
	first := 0
	for first < n-1 && !finitePos(tr.Points[first].Pos) {
		first++
	}
	k := refine.NewKalman(tr.Points[first].Pos, opt.ProcessNoise, opt.MeasNoise)
	k.Update(tr.Points[first].Pos)
	prevT := tr.Points[0].T
	warmup := 3
	consecutive := 0
	for i := 1; i < n; i++ {
		t := tr.Points[i].T
		if !finite(t) {
			continue // a missing step: no predict, no update, no flag
		}
		if !finite(prevT) {
			prevT = t // the first finite stamp starts the clock
		}
		dt := math.Max(t-prevT, 1e-9)
		innov := k.Innovation(dt, tr.Points[i].Pos)
		// The innovation gate widens with the prediction horizon to
		// tolerate legitimate motion over long gaps.
		gate := opt.Threshold * opt.MeasNoise * math.Max(1, math.Sqrt(dt))
		if i > warmup && innov > gate && consecutive < 3 {
			// Outliers do not update the filter — but only for a bounded
			// run. A long disagreement means the filter itself diverged
			// (e.g. after a sharp legitimate turn), so trust the data
			// again rather than flag everything that follows.
			flags[i] = true
			consecutive++
			k.Predict(dt)
			if opt.Repair {
				out.Points[i].Pos = k.Position()
			}
		} else if !finitePos(tr.Points[i].Pos) {
			k.Predict(dt) // nothing to update with, restart at, or end a run
		} else {
			if consecutive >= 3 {
				// Recover from divergence: rebuild around the data.
				k = refine.NewKalman(tr.Points[i].Pos, opt.ProcessNoise, opt.MeasNoise)
				k.Update(tr.Points[i].Pos)
			} else {
				k.Step(dt, tr.Points[i].Pos)
			}
			consecutive = 0
		}
		prevT = t
	}
	return out, flags
}

// finitePos reports whether both coordinates of p are finite.
func finitePos(p geo.Point) bool { return finite(p.X) && finite(p.Y) }

// finite reports whether f is neither NaN nor infinite.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Remove returns a copy of tr without the flagged points, sized to
// what it keeps. flags may be shorter than tr: points past its end are
// kept.
func Remove(tr *trajectory.Trajectory, flags []bool) *trajectory.Trajectory {
	kept := len(tr.Points)
	for i, f := range flags {
		if f && i < len(tr.Points) {
			kept--
		}
	}
	return &trajectory.Trajectory{ID: tr.ID, Points: AppendKept(make([]trajectory.Point, 0, kept), tr.Points, flags)}
}

// AppendKept is Remove's append form: it appends the points of pts
// that flags does not flag to dst and returns the extended slice.
func AppendKept(dst, pts []trajectory.Point, flags []bool) []trajectory.Point {
	for i, p := range pts {
		if i < len(flags) && flags[i] {
			continue
		}
		dst = append(dst, p)
	}
	return dst
}

// Score is a detector evaluation against ground-truth flags.
type Score struct {
	TP, FP, FN int
}

// Precision returns TP/(TP+FP), 1 when nothing was predicted.
func (s Score) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall returns TP/(TP+FN), 1 when nothing was to be found.
func (s Score) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (s Score) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Evaluate scores predicted flags against ground truth.
func Evaluate(predicted, truth []bool) Score {
	var s Score
	n := len(predicted)
	if len(truth) < n {
		n = len(truth)
	}
	for i := 0; i < n; i++ {
		switch {
		case predicted[i] && truth[i]:
			s.TP++
		case predicted[i] && !truth[i]:
			s.FP++
		case !predicted[i] && truth[i]:
			s.FN++
		}
	}
	// Count truths beyond the shorter slice as misses.
	for i := n; i < len(truth); i++ {
		if truth[i] {
			s.FN++
		}
	}
	return s
}
