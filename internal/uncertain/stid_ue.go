package uncertain

import (
	"math"

	"sidq/internal/geo"
	"sidq/internal/stats"
	"sidq/internal/stid"
)

// IDW is inverse-distance-weighted spatiotemporal interpolation: each
// reading within the temporal window contributes with weight
// 1/(spatialDist^power + eps) scaled by a triangular temporal decay.
type IDW struct {
	Readings   []stid.Reading
	Power      float64 // distance exponent (default 2)
	TimeWindow float64 // readings further than this in time are ignored (default +Inf)
}

// Estimate returns the interpolated value at (pos, t). ok is false when
// no readings are usable (e.g. none within the time window).
func (w IDW) Estimate(pos geo.Point, t float64) (float64, bool) {
	power := w.Power
	if power <= 0 {
		power = 2
	}
	window := w.TimeWindow
	if window <= 0 {
		window = math.Inf(1)
	}
	var num, den float64
	for _, r := range w.Readings {
		dt := math.Abs(r.T - t)
		if dt > window {
			continue
		}
		temporal := 1.0
		if !math.IsInf(window, 1) {
			temporal = 1 - dt/window
		}
		d := r.Pos.Dist(pos)
		wt := temporal / (math.Pow(d, power) + 1e-9)
		num += wt * r.Value
		den += wt
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// GaussianKernel interpolates with a Gaussian spatial kernel and an
// exponential temporal decay — smoother than IDW near sample points.
type GaussianKernel struct {
	Readings   []stid.Reading
	SpaceSigma float64 // spatial bandwidth in meters (default 100)
	TimeSigma  float64 // temporal bandwidth in seconds (default +Inf)
}

// Estimate returns the interpolated value at (pos, t). ok is false when
// no readings are usable (e.g. none within the time window).
func (g GaussianKernel) Estimate(pos geo.Point, t float64) (float64, bool) {
	ss := g.SpaceSigma
	if ss <= 0 {
		ss = 100
	}
	var num, den float64
	for _, r := range g.Readings {
		wt := math.Exp(-r.Pos.DistSq(pos) / (2 * ss * ss))
		if g.TimeSigma > 0 {
			dt := r.T - t
			wt *= math.Exp(-dt * dt / (2 * g.TimeSigma * g.TimeSigma))
		}
		num += wt * r.Value
		den += wt
	}
	if den < 1e-12 {
		return 0, false
	}
	return num / den, true
}

// TrendResidual fits a first-order spatial trend surface
// v = a + b*x + c*y by least squares and interpolates the residuals
// with IDW — a light-weight version of universal kriging that captures
// large-scale gradients the pure-neighborhood methods miss.
type TrendResidual struct {
	idw     IDW
	a, b, c float64
	ok      bool
}

// NewTrendResidual fits the trend over the given readings.
func NewTrendResidual(readings []stid.Reading, power, timeWindow float64) *TrendResidual {
	tr := &TrendResidual{}
	if len(readings) < 3 {
		tr.idw = IDW{Readings: readings, Power: power, TimeWindow: timeWindow}
		return tr
	}
	// Normal equations for [a b c].
	m := stats.NewMatrix(3, 3)
	rhs := stats.NewMatrix(3, 1)
	for _, r := range readings {
		row := [3]float64{1, r.Pos.X, r.Pos.Y}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m.Set(i, j, m.At(i, j)+row[i]*row[j])
			}
			rhs.Set(i, 0, rhs.At(i, 0)+row[i]*r.Value)
		}
	}
	inv, err := m.Inverse()
	if err == nil {
		sol := inv.Mul(rhs)
		tr.a, tr.b, tr.c = sol.At(0, 0), sol.At(1, 0), sol.At(2, 0)
		tr.ok = true
	}
	residuals := make([]stid.Reading, len(readings))
	copy(residuals, readings)
	if tr.ok {
		for i := range residuals {
			residuals[i].Value -= tr.trend(residuals[i].Pos)
		}
	}
	tr.idw = IDW{Readings: residuals, Power: power, TimeWindow: timeWindow}
	return tr
}

func (t *TrendResidual) trend(p geo.Point) float64 { return t.a + t.b*p.X + t.c*p.Y }

// Estimate returns the interpolated value at (pos, t). ok is false when
// no readings are usable (e.g. none within the time window).
func (t *TrendResidual) Estimate(pos geo.Point, tm float64) (float64, bool) {
	res, ok := t.idw.Estimate(pos, tm)
	if !ok {
		return 0, false
	}
	if t.ok {
		return t.trend(pos) + res, true
	}
	return res, true
}

// SourceReadings is one source's readings for fusion.
type SourceReadings struct {
	Source   string
	Readings []stid.Reading
}

// FusionResult carries the fused readings and the per-source weights
// and estimated biases the fusion derived.
type FusionResult struct {
	Fused   []stid.Reading
	Weights map[string]float64
	Biases  map[string]float64
}

// FuseSources merges multi-source STID by (1) estimating each source's
// systematic bias against the cross-source consensus at co-located
// sample points, (2) de-biasing, and (3) averaging sources weighted by
// the inverse of their residual variance. The fused readings are
// emitted on the first source's (sensor, time) grid. This mirrors the
// data-fusion approach to measurement-uncertainty reduction.
func FuseSources(sources []SourceReadings, spaceSigma float64) FusionResult {
	out := FusionResult{Weights: map[string]float64{}, Biases: map[string]float64{}}
	if len(sources) == 0 {
		return out
	}
	if spaceSigma <= 0 {
		spaceSigma = 100
	}
	// Consensus interpolator per source-complement: estimate each
	// source's bias as the mean difference between its readings and the
	// all-source Gaussian-kernel estimate at the same points.
	var all []stid.Reading
	for _, s := range sources {
		all = append(all, s.Readings...)
	}
	consensus := GaussianKernel{Readings: all, SpaceSigma: spaceSigma}
	for _, s := range sources {
		var diffs []float64
		for _, r := range s.Readings {
			if est, ok := consensus.Estimate(r.Pos, r.T); ok {
				diffs = append(diffs, r.Value-est)
			}
		}
		bias := stats.Mean(diffs)
		variance := stats.Variance(diffs)
		out.Biases[s.Source] = bias
		out.Weights[s.Source] = 1 / (variance + 1e-6)
	}
	// Normalize weights.
	var wsum float64
	for _, w := range out.Weights {
		wsum += w
	}
	for k := range out.Weights {
		out.Weights[k] /= wsum
	}
	// Fuse on the first source's sample grid: weighted average of each
	// source's de-biased kernel estimate.
	base := sources[0].Readings
	perSource := make([]GaussianKernel, len(sources))
	for i, s := range sources {
		debiased := make([]stid.Reading, len(s.Readings))
		copy(debiased, s.Readings)
		for j := range debiased {
			debiased[j].Value -= out.Biases[s.Source]
		}
		perSource[i] = GaussianKernel{Readings: debiased, SpaceSigma: spaceSigma}
	}
	for _, r := range base {
		var num, den float64
		for i, s := range sources {
			if est, ok := perSource[i].Estimate(r.Pos, r.T); ok {
				w := out.Weights[s.Source]
				num += w * est
				den += w
			}
		}
		fused := r
		if den > 0 {
			fused.Value = num / den
		} else {
			fused.Value = r.Value - out.Biases[sources[0].Source]
		}
		out.Fused = append(out.Fused, fused)
	}
	return out
}
