package trajectory

import "math"

// SED returns the synchronized Euclidean distance of point p from the
// straight movement between anchor points a and b: the distance between
// p's position and where the object would be at p.T under constant
// speed from a to b. SED is the standard error measure for
// error-bounded trajectory simplification.
func SED(a, b, p Point) float64 {
	if b.T == a.T {
		return p.Pos.Dist(a.Pos)
	}
	f := (p.T - a.T) / (b.T - a.T)
	expected := a.Pos.Lerp(b.Pos, f)
	return p.Pos.Dist(expected)
}

// MaxSED returns the maximum SED of the points strictly between indices
// i and j against the chord from point i to point j.
func MaxSED(tr *Trajectory, i, j int) float64 {
	var worst float64
	a, b := tr.Points[i], tr.Points[j]
	for k := i + 1; k < j; k++ {
		if d := SED(a, b, tr.Points[k]); d > worst {
			worst = d
		}
	}
	return worst
}

// SyncDistance returns the mean synchronized Euclidean distance between
// two trajectories evaluated at n evenly spaced times across their
// overlapping span. It returns +Inf if the spans do not overlap or
// either trajectory is empty.
func SyncDistance(a, b *Trajectory, n int) float64 {
	a0, a1, okA := a.TimeBounds()
	b0, b1, okB := b.TimeBounds()
	if !okA || !okB || n < 1 {
		return math.Inf(1)
	}
	t0, t1 := math.Max(a0, b0), math.Min(a1, b1)
	if t1 < t0 {
		return math.Inf(1)
	}
	var sum float64
	for i := 0; i < n; i++ {
		var t float64
		if n == 1 {
			t = (t0 + t1) / 2
		} else {
			t = t0 + (t1-t0)*float64(i)/float64(n-1)
		}
		pa, _ := a.LocationAt(t)
		pb, _ := b.LocationAt(t)
		sum += pa.Dist(pb)
	}
	return sum / float64(n)
}

// RMSEAgainst returns the root-mean-square positional error of tr
// against a ground-truth trajectory, evaluated at tr's own sample times
// via interpolation of the truth. It returns +Inf if truth is empty.
func RMSEAgainst(tr, truth *Trajectory) float64 {
	if len(truth.Points) == 0 || len(tr.Points) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range tr.Points {
		tp, _ := truth.LocationAt(p.T)
		d := p.Pos.Dist(tp)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(tr.Points)))
}

// MeanErrorAgainst is like RMSEAgainst but returns the mean absolute
// positional error.
func MeanErrorAgainst(tr, truth *Trajectory) float64 {
	if len(truth.Points) == 0 || len(tr.Points) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range tr.Points {
		tp, _ := truth.LocationAt(p.T)
		sum += p.Pos.Dist(tp)
	}
	return sum / float64(len(tr.Points))
}
