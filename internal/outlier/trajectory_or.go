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
	"sync"

	"sidq/internal/geo"
	"sidq/internal/refine"
	"sidq/internal/stats"
	"sidq/internal/trajectory"
)

// floatPool recycles the detectors' scratch (segment speeds, features,
// window distances): they run once per trajectory per pipeline attempt,
// so the buffers are the dominant steady-state garbage in cleaning
// loops.
var floatPool = sync.Pool{New: func() any { return new([]float64) }}

func getFloats(n int) *[]float64 {
	p := floatPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

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
// training data but assumes locally valid neighbors. Every segment
// speed is computed once, up front. flags is an optional reuse buffer
// (nil allocates); the returned slice holds the result.
func SpeedConstraint(pts []trajectory.Point, maxSpeed float64, flags []bool) []bool {
	n := len(pts)
	flags = flagsInto(flags, n)
	if n < 3 || maxSpeed <= 0 {
		return flags
	}
	segP := getFloats(n - 1)
	defer floatPool.Put(segP)
	seg := *segP
	for i := 1; i < n; i++ {
		dt := pts[i].T - pts[i-1].T
		if dt <= 0 {
			seg[i-1] = math.Inf(1)
		} else {
			seg[i-1] = math.Hypot(pts[i-1].Pos.X-pts[i].Pos.X, pts[i-1].Pos.Y-pts[i].Pos.Y) / dt
		}
	}
	skip := func(i, j int) float64 {
		dt := pts[j].T - pts[i].T
		if dt <= 0 {
			return math.Inf(1)
		}
		return math.Hypot(pts[i].Pos.X-pts[j].Pos.X, pts[i].Pos.Y-pts[j].Pos.Y) / dt
	}
	for i := 1; i < n-1; i++ {
		if seg[i-1] > maxSpeed && seg[i] > maxSpeed && skip(i-1, i+1) <= maxSpeed {
			flags[i] = true
		}
	}
	// Endpoints: flag when the only adjacent segment is impossible and
	// the next interior point is consistent with its own neighbor.
	if seg[0] > maxSpeed && seg[1] <= maxSpeed {
		flags[0] = true
	}
	if seg[n-2] > maxSpeed && seg[n-3] <= maxSpeed {
		flags[n-1] = true
	}
	return flags
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
// (nil allocates); the returned slice holds the result.
func Statistical(pts []trajectory.Point, opt StatisticalOptions, flags []bool) []bool {
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
	featP := getFloats(n)
	defer floatPool.Put(featP)
	feat := *featP
	dsP := getFloats(2 * opt.Window)
	defer floatPool.Put(dsP)
	ds := (*dsP)[:0]
	for i := 0; i < n; i++ {
		ds = ds[:0]
		xi, yi := pts[i].Pos.X, pts[i].Pos.Y
		for w := -opt.Window; w <= opt.Window; w++ {
			j := i + w
			if j < 0 || j >= n || j == i {
				continue
			}
			ds = append(ds, math.Hypot(xi-pts[j].Pos.X, yi-pts[j].Pos.Y))
		}
		m, _ := stats.MedianInPlace(ds)
		feat[i] = m
	}
	// Median and MAD over pooled scratch: MedianInPlace on a copy runs
	// the same sort+quantile pipeline as stats.Median/MAD.
	scrP := getFloats(n)
	defer floatPool.Put(scrP)
	scr := *scrP
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
	out := &trajectory.Trajectory{ID: tr.ID, Points: make([]trajectory.Point, 0, kept)}
	for i, p := range tr.Points {
		if i < len(flags) && flags[i] {
			continue
		}
		out.Points = append(out.Points, p)
	}
	return out
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
