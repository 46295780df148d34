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
	"sidq/internal/trajectory"
)

// colsPool recycles the struct-of-arrays scratch the []Point entry
// points convert through on their way to the columnar kernels.
var colsPool = sync.Pool{New: func() any { return new(trajectory.Columns) }}

// SpeedConstraint flags points that cannot be reached under the given
// maximum speed: a point is an outlier when the speeds both into and
// out of it violate the bound while its neighbors agree with each
// other. This is the classic constraint-based detector; it needs no
// training data but assumes locally valid neighbors. It is the
// trajectory-form entry point of SpeedConstraintCols.
func SpeedConstraint(tr *trajectory.Trajectory, maxSpeed float64) []bool {
	c := colsPool.Get().(*trajectory.Columns)
	defer colsPool.Put(c)
	c.FromTrajectory(tr)
	return SpeedConstraintCols(c, maxSpeed, nil)
}

// StatisticalOptions configures the statistics-based detector.
type StatisticalOptions struct {
	Window    int     // temporal neighbors each side (default 3)
	Threshold float64 // robust z-score cut (default 3.5)
}

// Statistical flags points whose deviation from their local
// neighborhood chord is extreme relative to the trajectory's robust
// deviation profile (median/MAD). It needs no physical bound but
// assumes most points are clean. It is the trajectory-form entry point
// of StatisticalCols.
func Statistical(tr *trajectory.Trajectory, opt StatisticalOptions) []bool {
	c := colsPool.Get().(*trajectory.Columns)
	defer colsPool.Put(c)
	c.FromTrajectory(tr)
	return StatisticalCols(c, opt, nil)
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
// one.
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
		dt := math.Max(tr.Points[i].T-prevT, 1e-9)
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
		prevT = tr.Points[i].T
	}
	return out, flags
}

// finitePos reports whether both coordinates of p are finite.
func finitePos(p geo.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Remove returns a copy of tr without the flagged points — the
// trajectory-form entry point of RemoveCols.
func Remove(tr *trajectory.Trajectory, flags []bool) *trajectory.Trajectory {
	src := colsPool.Get().(*trajectory.Columns)
	dst := colsPool.Get().(*trajectory.Columns)
	defer colsPool.Put(src)
	defer colsPool.Put(dst)
	src.FromTrajectory(tr)
	RemoveCols(dst, src, flags)
	return dst.Trajectory(tr.ID)
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
