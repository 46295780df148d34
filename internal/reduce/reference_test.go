package reduce

import "sidq/internal/trajectory"

// douglasPeuckerSEDRef is the pre-columnar DouglasPeuckerSED — the
// recursive TD-TR over []Point — kept as the reference the differential
// test in columnar_test.go compares the production kernel and its
// []Point entry point against.
func douglasPeuckerSEDRef(tr *trajectory.Trajectory, eps float64) *trajectory.Trajectory {
	n := tr.Len()
	out := &trajectory.Trajectory{ID: tr.ID}
	if n == 0 {
		return out
	}
	if n <= 2 || eps <= 0 {
		out.Points = append(out.Points, tr.Points...)
		return out
	}
	keep := make([]bool, n)
	keep[0], keep[n-1] = true, true
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		worst, worstI := 0.0, -1
		a, b := tr.Points[lo], tr.Points[hi]
		for i := lo + 1; i < hi; i++ {
			if d := trajectory.SED(a, b, tr.Points[i]); d > worst {
				worst, worstI = d, i
			}
		}
		if worst > eps {
			keep[worstI] = true
			rec(lo, worstI)
			rec(worstI, hi)
		}
	}
	rec(0, n-1)
	for i, k := range keep {
		if k {
			out.Points = append(out.Points, tr.Points[i])
		}
	}
	return out
}
