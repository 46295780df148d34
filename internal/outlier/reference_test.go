package outlier

// The first bodies of the trajectory-point detectors, kept as the
// references the differential tests in differential_test.go compare
// the production detectors against.

import (
	"math"

	"sidq/internal/stats"
	"sidq/internal/trajectory"
)

// speedConstraintRef is the reference SpeedConstraint: each segment
// speed is recomputed as "out" for one point and "in" for the next.
func speedConstraintRef(tr *trajectory.Trajectory, maxSpeed float64) []bool {
	n := tr.Len()
	flags := make([]bool, n)
	if n < 3 || maxSpeed <= 0 {
		return flags
	}
	speed := func(i, j int) float64 {
		dt := tr.Points[j].T - tr.Points[i].T
		if dt <= 0 {
			return math.Inf(1)
		}
		return tr.Points[i].Pos.Dist(tr.Points[j].Pos) / dt
	}
	for i := 1; i < n-1; i++ {
		in := speed(i-1, i)
		out := speed(i, i+1)
		skip := speed(i-1, i+1) // neighbor-to-neighbor, skipping i
		if in > maxSpeed && out > maxSpeed && skip <= maxSpeed {
			flags[i] = true
		}
	}
	// Endpoints: flag when the only adjacent segment is impossible and
	// the next interior point is consistent with its own neighbor.
	if n >= 3 {
		if speed(0, 1) > maxSpeed && speed(1, 2) <= maxSpeed {
			flags[0] = true
		}
		if speed(n-2, n-1) > maxSpeed && speed(n-3, n-2) <= maxSpeed {
			flags[n-1] = true
		}
	}
	return flags
}

// statisticalRef is the reference Statistical: window-median
// deviation feature over []Point, then stats.Median/MAD.
func statisticalRef(tr *trajectory.Trajectory, opt StatisticalOptions) []bool {
	n := tr.Len()
	flags := make([]bool, n)
	if n < 5 {
		return flags
	}
	if opt.Window <= 0 {
		opt.Window = 3
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 3.5
	}
	feat := make([]float64, n)
	ds := make([]float64, 0, 2*opt.Window)
	for i := range tr.Points {
		ds = ds[:0]
		for w := -opt.Window; w <= opt.Window; w++ {
			j := i + w
			if j < 0 || j >= n || j == i {
				continue
			}
			ds = append(ds, tr.Points[i].Pos.Dist(tr.Points[j].Pos))
		}
		m, _ := stats.MedianInPlace(ds)
		feat[i] = m
	}
	med, _ := stats.Median(feat)
	mad, _ := stats.MAD(feat)
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

// removeRef is the reference Remove.
func removeRef(tr *trajectory.Trajectory, flags []bool) *trajectory.Trajectory {
	out := &trajectory.Trajectory{ID: tr.ID}
	for i, p := range tr.Points {
		if i < len(flags) && flags[i] {
			continue
		}
		out.Points = append(out.Points, p)
	}
	return out
}
