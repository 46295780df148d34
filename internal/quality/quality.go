// Package quality implements the paper's §2.1 SID quality framework:
// the data-quality dimensions as measurable metrics over trajectories
// and spatiotemporal readings, assessment reports, and the empirical
// reproduction of Table 1 (SID characteristics and the quality issues
// they cause).
//
// Conventions: every dimension is normalized so that the metric is
// directly comparable across datasets. "Score-like" dimensions
// (Accuracy, Consistency, Completeness, SpaceCoverage) are better when
// higher; "burden-like" dimensions (PrecisionError, TimeSparsity,
// Redundancy, Latency, Staleness, DataVolume) are better when lower.
package quality

import (
	"fmt"
	"math"
	"strings"

	"sidq/internal/geo"
	"sidq/internal/stats"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// Dimension identifies one data-quality dimension from §2.1.
type Dimension int

// The DQ dimensions covered by the tutorial.
const (
	// Accuracy is closeness to the true state: 1/(1+meanError). Needs
	// ground truth; reported as NaN without it.
	Accuracy Dimension = iota
	// PrecisionError is the repeatability noise level in meters (or
	// value units), estimated without ground truth from local
	// roughness. Lower is better.
	PrecisionError
	// Consistency is the fraction of observations that satisfy
	// integrity constraints (monotone time, speed bounds, cross-source
	// agreement). Higher is better.
	Consistency
	// TimeSparsity is the mean gap between consecutive samples in
	// seconds. Lower is denser.
	TimeSparsity
	// SpaceCoverage is the fraction of region cells observed. Higher is
	// better.
	SpaceCoverage
	// Completeness is observed count / expected count in [0, 1].
	Completeness
	// Redundancy is the fraction of observations that duplicate an
	// earlier observation. Lower is better.
	Redundancy
	// Latency is the mean delay between measurement and availability in
	// seconds. Lower is better.
	Latency
	// Staleness is the age of the newest observation relative to the
	// assessment time, in seconds. Lower is fresher.
	Staleness
	// DataVolume is the raw observation count.
	DataVolume
	// TruthVolume is the number of ground-truth-labeled observations
	// available for validation.
	TruthVolume
	// Resolution is the finest spatial granularity of the data in
	// meters (grid pitch / quantization step). Lower is finer.
	Resolution
	// Interpretability is the fraction of observations carrying
	// semantic annotations. Higher is better.
	Interpretability
)

var dimensionNames = map[Dimension]string{
	Accuracy:         "accuracy",
	PrecisionError:   "precision_error",
	Consistency:      "consistency",
	TimeSparsity:     "time_sparsity",
	SpaceCoverage:    "space_coverage",
	Completeness:     "completeness",
	Redundancy:       "redundancy",
	Latency:          "latency",
	Staleness:        "staleness",
	DataVolume:       "data_volume",
	TruthVolume:      "truth_volume",
	Resolution:       "resolution",
	Interpretability: "interpretability",
}

// String implements fmt.Stringer.
func (d Dimension) String() string {
	if s, ok := dimensionNames[d]; ok {
		return s
	}
	return fmt.Sprintf("dimension(%d)", int(d))
}

// HigherIsBetter reports the polarity of the dimension.
func (d Dimension) HigherIsBetter() bool {
	switch d {
	case Accuracy, Consistency, SpaceCoverage, Completeness, TruthVolume, Interpretability:
		return true
	default:
		return false
	}
}

// AllDimensions lists every dimension in declaration order.
func AllDimensions() []Dimension {
	return []Dimension{
		Accuracy, PrecisionError, Consistency, TimeSparsity, SpaceCoverage,
		Completeness, Redundancy, Latency, Staleness, DataVolume,
		TruthVolume, Resolution, Interpretability,
	}
}

// Assessment is a measured quality report: dimension -> value. Missing
// dimensions were not measurable for the dataset.
type Assessment map[Dimension]float64

// String renders the assessment as an aligned table, dimensions in
// declaration order.
func (a Assessment) String() string {
	var b strings.Builder
	for _, d := range AllDimensions() {
		if v, ok := a[d]; ok {
			fmt.Fprintf(&b, "%-18s %12.4f\n", d.String(), v)
		}
	}
	return b.String()
}

// WorseThan reports the dimensions on which a is materially worse than
// b, using the given relative tolerance (e.g. 0.05 = 5%).
func (a Assessment) WorseThan(b Assessment, relTol float64) []Dimension {
	var out []Dimension
	for _, d := range AllDimensions() {
		av, okA := a[d]
		bv, okB := b[d]
		if !okA || !okB {
			continue
		}
		scale := math.Max(math.Abs(av), math.Abs(bv))
		if scale == 0 {
			continue
		}
		diff := (av - bv) / scale
		if d.HigherIsBetter() {
			diff = -diff
		}
		if diff > relTol {
			out = append(out, d)
		}
	}
	return out
}

// TrajectoryContext supplies the side information needed to assess a
// trajectory. Zero fields disable the corresponding dimensions.
type TrajectoryContext struct {
	Truth            *trajectory.Trajectory // ground truth (enables Accuracy, TruthVolume)
	ExpectedInterval float64                // nominal sampling period (enables Completeness)
	MaxSpeed         float64                // physical speed bound (enables Consistency speed checks)
	Region           geo.Rect               // assessed region (enables SpaceCoverage)
	CellSize         float64                // coverage cell size, default 50 m
	Now              float64                // assessment time (enables Staleness)
	Delays           []float64              // per-point report delays (enables Latency)
	Annotated        int                    // count of semantically annotated points (enables Interpretability)
}

// AssessTrajectory measures every applicable DQ dimension of obs.
func AssessTrajectory(obs *trajectory.Trajectory, ctx TrajectoryContext) Assessment {
	a := Assessment{}
	n := obs.Len()
	a[DataVolume] = float64(n)
	if n == 0 {
		return a
	}

	// Accuracy and TruthVolume need ground truth.
	if ctx.Truth != nil && ctx.Truth.Len() > 0 {
		a[Accuracy] = 1 / (1 + trajectory.MeanErrorAgainst(obs, ctx.Truth))
		a[TruthVolume] = float64(ctx.Truth.Len())
	}

	a[PrecisionError] = Roughness(obs)

	// Consistency: monotone timestamps and speed-bound compliance.
	a[Consistency] = consistencyScore(obs, ctx.MaxSpeed)

	if n >= 2 {
		a[TimeSparsity] = obs.MeanSampleInterval()
	}

	if ctx.ExpectedInterval > 0 && n >= 2 {
		expected := obs.Duration()/ctx.ExpectedInterval + 1
		a[Completeness] = math.Min(1, float64(n)/expected)
	}

	if !ctx.Region.IsEmpty() && ctx.Region.Area() > 0 {
		cell := ctx.CellSize
		if cell <= 0 {
			cell = 50
		}
		a[SpaceCoverage] = coverage(obs.Polyline(), ctx.Region, cell)
		a[Resolution] = cell
	}

	// The fraction of points that exactly repeat an earlier one — counted
	// with the key DeduplicateStage removes them by.
	a[Redundancy] = float64(trajectory.CountDuplicates(obs.Points)) / float64(n)

	if len(ctx.Delays) > 0 {
		a[Latency] = stats.Mean(ctx.Delays)
	}

	if ctx.Now != 0 {
		_, t1, _ := obs.TimeBounds()
		a[Staleness] = math.Max(0, ctx.Now-t1)
	}

	if ctx.Annotated > 0 {
		a[Interpretability] = math.Min(1, float64(ctx.Annotated)/float64(n))
	}
	return a
}

// Roughness estimates the positional noise level without ground truth:
// the RMS deviation of each interior point from the chord between its
// neighbors (SED), scaled by 1/sqrt(1.5) because for i.i.d. Gaussian
// noise the midpoint deviation has variance 1.5*sigma^2. A sample with
// a non-finite stamp is a missing step, as it is to the smoother this
// estimate feeds: the triples run over the samples around it. Of those
// triples only the ones whose three positions are finite count, so one
// NaN or Inf sample neither makes the estimate NaN nor un-plans
// smoothing; with no such triple it is 0.
func Roughness(tr *trajectory.Trajectory) float64 {
	var sum float64
	var n, stamped int
	var a, p trajectory.Point // the last two samples with a finite stamp
	for _, b := range tr.Points {
		if math.IsNaN(b.T) || math.IsInf(b.T, 0) {
			continue
		}
		if stamped >= 2 && finitePoint(a) && finitePoint(p) && finitePoint(b) {
			d := trajectory.SED(a, b, p)
			sum += d * d
			n++
		}
		a, p = p, b
		stamped++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum/float64(n)) / math.Sqrt(1.5)
}

// finitePoint reports whether p's T, X and Y are all finite.
func finitePoint(p trajectory.Point) bool {
	for _, v := range [3]float64{p.T, p.Pos.X, p.Pos.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// consistencyScore returns the fraction of segments satisfying time
// monotonicity and, if maxSpeed > 0, the speed bound.
func consistencyScore(tr *trajectory.Trajectory, maxSpeed float64) float64 {
	if tr.Len() < 2 {
		return 1
	}
	speeds := tr.Speeds()
	ok := 0
	for _, s := range speeds {
		if math.IsInf(s, 1) {
			continue // non-increasing timestamp
		}
		if maxSpeed > 0 && s > maxSpeed {
			continue
		}
		ok++
	}
	return float64(ok) / float64(len(speeds))
}

// coverage rasterizes the polyline onto a grid over region and returns
// the visited-cell fraction.
func coverage(pl geo.Polyline, region geo.Rect, cell float64) float64 {
	nx := int(math.Ceil(region.Width() / cell))
	ny := int(math.Ceil(region.Height() / cell))
	if nx < 1 || ny < 1 {
		return 0
	}
	visited := map[int]bool{}
	mark := func(p geo.Point) {
		if !region.Contains(p) {
			return
		}
		cx := int((p.X - region.Min.X) / cell)
		cy := int((p.Y - region.Min.Y) / cell)
		if cx >= nx {
			cx = nx - 1
		}
		if cy >= ny {
			cy = ny - 1
		}
		visited[cy*nx+cx] = true
	}
	for i, p := range pl {
		mark(p)
		if i == 0 {
			continue
		}
		// Walk the segment at sub-cell steps so thin diagonals count.
		seg := geo.Segment{A: pl[i-1], B: pl[i]}
		steps := int(seg.Length()/(cell/2)) + 1
		for s := 1; s < steps; s++ {
			mark(seg.Interpolate(float64(s) / float64(steps)))
		}
	}
	return float64(len(visited)) / float64(nx*ny)
}

// ReadingsContext supplies side information for assessing STID
// readings. Zero fields disable the corresponding dimensions.
type ReadingsContext struct {
	Region geo.Rect // assessed region (enables SpaceCoverage, on a 10-cell-wide grid)
	Now    float64  // assessment time (enables Staleness)
}

// AssessReadings measures every applicable DQ dimension of a set of
// STID readings.
func AssessReadings(readings []stid.Reading, ctx ReadingsContext) Assessment {
	a := Assessment{}
	a[DataVolume] = float64(len(readings))
	if len(readings) == 0 {
		return a
	}

	// Precision: per-sensor local roughness of the value series.
	series := stid.NewSeries(readings)
	var rough []float64
	for _, s := range series {
		if r, ok := seriesRoughness(s); ok {
			rough = append(rough, r)
		}
	}
	if len(rough) > 0 {
		a[PrecisionError] = stats.Mean(rough)
	}

	// Consistency: cross-sensor agreement — fraction of readings within
	// 3 robust sigmas of the co-temporal neighborhood consensus.
	a[Consistency] = crossConsistency(readings)

	// Time sparsity: mean per-sensor sampling gap.
	var gaps []float64
	for _, s := range series {
		ts := s.Times()
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, ts[i]-ts[i-1])
		}
	}
	if len(gaps) > 0 {
		a[TimeSparsity] = stats.Mean(gaps)
	}

	if !ctx.Region.IsEmpty() && ctx.Region.Area() > 0 {
		cell := ctx.Region.Width() / 10
		pts := make(geo.Polyline, 0, len(series))
		for _, s := range series {
			pts = append(pts, s.Pos)
		}
		a[SpaceCoverage] = pointCoverage(pts, ctx.Region, cell)
		a[Resolution] = cell
	}

	a[Redundancy] = readingDuplicateFraction(readings)

	if ctx.Now != 0 {
		_, t1, _ := stid.TimeBounds(readings)
		a[Staleness] = math.Max(0, ctx.Now-t1)
	}
	return a
}

func seriesRoughness(s stid.Series) (float64, bool) {
	if len(s.Readings) < 3 {
		return 0, false
	}
	var sum float64
	var n int
	for i := 1; i < len(s.Readings)-1; i++ {
		mid := (s.Readings[i-1].Value + s.Readings[i+1].Value) / 2
		d := s.Readings[i].Value - mid
		sum += d * d
		n++
	}
	return math.Sqrt(sum/float64(n)) / math.Sqrt(1.5), true
}

// crossConsistency groups readings into coarse time buckets and flags
// values deviating more than 3 robust sigmas from the bucket median.
func crossConsistency(readings []stid.Reading) float64 {
	t0, t1, _ := stid.TimeBounds(readings)
	span := t1 - t0
	bucket := span / 20
	if bucket <= 0 {
		bucket = 1
	}
	groups := map[int][]float64{}
	for _, r := range readings {
		k := int((r.T - t0) / bucket)
		groups[k] = append(groups[k], r.Value)
	}
	okCount, total := 0, 0
	for _, vals := range groups {
		if len(vals) < 4 {
			okCount += len(vals)
			total += len(vals)
			continue
		}
		med, _ := stats.Median(vals)
		mad, _ := stats.MAD(vals)
		if mad == 0 {
			mad = 1e-9
		}
		for _, v := range vals {
			total++
			// Spatial variation legitimately spreads values; use a wide
			// 5-sigma gate so only conflicts/outliers fail.
			if math.Abs(v-med) <= 5*mad {
				okCount++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(okCount) / float64(total)
}

func pointCoverage(pts geo.Polyline, region geo.Rect, cell float64) float64 {
	nx := int(math.Ceil(region.Width() / cell))
	ny := int(math.Ceil(region.Height() / cell))
	if nx < 1 || ny < 1 {
		return 0
	}
	visited := map[int]bool{}
	for _, p := range pts {
		if !region.Contains(p) {
			continue
		}
		cx := int((p.X - region.Min.X) / cell)
		cy := int((p.Y - region.Min.Y) / cell)
		if cx >= nx {
			cx = nx - 1
		}
		if cy >= ny {
			cy = ny - 1
		}
		visited[cy*nx+cx] = true
	}
	return float64(len(visited)) / float64(nx*ny)
}

func readingDuplicateFraction(readings []stid.Reading) float64 {
	if len(readings) == 0 {
		return 0
	}
	type key struct {
		id string
		t  float64
	}
	seen := make(map[key]bool, len(readings))
	dup := 0
	for _, r := range readings {
		k := key{r.SensorID, r.T}
		if seen[k] {
			dup++
		}
		seen[k] = true
	}
	return float64(dup) / float64(len(readings))
}

// Diff renders the dimension-by-dimension movement from before to
// after as an aligned table with direction markers: "+" marks an
// improvement under the dimension's polarity, "-" a regression, "="
// no material change (0.1% relative).
func Diff(before, after Assessment) string {
	var b strings.Builder
	for _, d := range AllDimensions() {
		bv, okB := before[d]
		av, okA := after[d]
		if !okB && !okA {
			continue
		}
		mark := "="
		scale := math.Max(math.Abs(bv), math.Abs(av))
		if okB && okA && scale > 0 && math.Abs(av-bv)/scale > 0.001 {
			improved := av > bv
			if !d.HigherIsBetter() {
				improved = av < bv
			}
			if improved {
				mark = "+"
			} else {
				mark = "-"
			}
		}
		fmt.Fprintf(&b, "%s %-18s %12.4f -> %12.4f\n", mark, d.String(), bv, av)
	}
	return b.String()
}
