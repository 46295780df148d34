package quality

import (
	"fmt"
	"strings"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// Characteristic is one of the Table-1 SID characteristics.
type Characteristic int

// The thirteen characteristics of Table 1, in the paper's order.
const (
	NoisyErroneous Characteristic = iota
	TemporallyDiscrete
	DecentralizedHeterogeneous
	Dynamic
	VoluminousDuplicated
	IsolatedConflicting
	VaryingSmoothly
	Markovian
	Unverifiable
	HierarchicalMultiScaled
	SpatiallyDiscrete
	SpatiallyAutocorrelated
	SpatiallyAnisotropic
)

var characteristicNames = map[Characteristic]string{
	NoisyErroneous:             "Noisy and erroneous",
	TemporallyDiscrete:         "Temporally discrete",
	DecentralizedHeterogeneous: "Decentralized and heterogeneous",
	Dynamic:                    "Dynamic",
	VoluminousDuplicated:       "Voluminous and duplicated",
	IsolatedConflicting:        "Isolated and conflicting",
	VaryingSmoothly:            "Varying smoothly",
	Markovian:                  "Markovian",
	Unverifiable:               "Unverifiable",
	HierarchicalMultiScaled:    "Hierarchical and multi-scaled",
	SpatiallyDiscrete:          "Spatially discrete",
	SpatiallyAutocorrelated:    "Spatially autocorrelated",
	SpatiallyAnisotropic:       "Spatially anisotropic",
}

// String implements fmt.Stringer.
func (c Characteristic) String() string { return characteristicNames[c] }

// AllCharacteristics lists the Table-1 rows in order.
func AllCharacteristics() []Characteristic {
	return []Characteristic{
		NoisyErroneous, TemporallyDiscrete, DecentralizedHeterogeneous,
		Dynamic, VoluminousDuplicated, IsolatedConflicting, VaryingSmoothly,
		Markovian, Unverifiable, HierarchicalMultiScaled, SpatiallyDiscrete,
		SpatiallyAutocorrelated, SpatiallyAnisotropic,
	}
}

// Effect is a measured quality-issue entry: the characteristic degraded
// (or improved) a dimension.
type Effect struct {
	Dim      Dimension
	Degraded bool    // true: the issue direction matches Table 1's arrow
	Baseline float64 // dimension value before injecting the characteristic
	Observed float64 // dimension value after
}

// Row is one empirical Table-1 row.
type Row struct {
	Char       Characteristic
	Structural bool // "-" rows: exploitable structure, not an issue
	Effects    []Effect
}

// CharacteristicMatrix reproduces Table 1 empirically: it generates a
// clean baseline trajectory workload, injects each characteristic in
// isolation, re-assesses, and records which dimensions degraded. The
// four structural rows (varying smoothly, Markovian, spatially
// autocorrelated, spatially anisotropic) are reported as such — the
// paper marks them "-" because they are exploitable regularities, not
// quality problems.
func CharacteristicMatrix(seed int64) []Row {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	truth := simulate.RandomWalk("t1", region, 1200, 2.0, 1, seed)
	baseCtx := TrajectoryContext{
		Truth:            truth,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Region:           region,
		CellSize:         50,
		Now:              1200,
		// The clean baseline arrives instantly and fully annotated, so
		// latency/interpretability regressions become measurable.
		Delays:    make([]float64, truth.Len()),
		Annotated: truth.Len(),
	}
	base := AssessTrajectory(truth, baseCtx)

	rows := make([]Row, 0, 13)
	for _, c := range AllCharacteristics() {
		row := Row{Char: c}
		switch c {
		case NoisyErroneous:
			noisy := simulate.AddGaussianNoise(truth, 8, seed+1)
			noisy, _ = simulate.InjectOutliers(noisy, 0.03, 150, seed+2)
			row.Effects = compare(base, AssessTrajectory(noisy, baseCtx),
				PrecisionError, Accuracy, Consistency)
		case TemporallyDiscrete:
			// Keep every 20th sample with no guarantee the newest fix is
			// reported — discrete sampling both thins the series and
			// leaves the consumer with a stale last-known position.
			sparse := &trajectory.Trajectory{ID: truth.ID}
			for i := 0; i < truth.Len(); i += 20 {
				sparse.Points = append(sparse.Points, truth.Points[i])
			}
			row.Effects = compare(base, AssessTrajectory(sparse, baseCtx),
				TimeSparsity, Completeness, Staleness)
		case DecentralizedHeterogeneous:
			// Two unsynchronized sources: one offset by a constant bias
			// (inter-source disagreement) and arriving with delay.
			src2 := simulate.AddGaussianNoise(truth, 0.5, seed+3)
			for i := range src2.Points {
				src2.Points[i].Pos = src2.Points[i].Pos.Add(geo.Pt(40, 0))
			}
			merged := mergeAlternating(truth, src2)
			delayed, delays := simulate.DelayReports(merged, 5, seed+4)
			ctx := baseCtx
			ctx.Delays = delays
			// Only the primary source's fixes carry semantics; the
			// foreign source's format is opaque to the consumer.
			ctx.Annotated = truth.Len()
			row.Effects = compare(base, AssessTrajectory(delayed, ctx),
				Consistency, Latency, Interpretability)
		case Dynamic:
			// Dynamics: each fix is used after a processing lag, during
			// which the object moved; the effective precision degrades.
			lagged := truth.Clone()
			for i := range lagged.Points {
				if pos, ok := truth.LocationAt(lagged.Points[i].T - 3); ok {
					lagged.Points[i].Pos = pos
				}
			}
			row.Effects = compare(base, AssessTrajectory(lagged, baseCtx),
				PrecisionError, Accuracy)
		case VoluminousDuplicated:
			dup := simulate.DuplicateSamples(truth, 0.5, seed+5)
			_, delays := simulate.DelayReports(dup, 2, seed+6)
			ctx := baseCtx
			ctx.Delays = delays
			row.Effects = compare(base, AssessTrajectory(dup, ctx),
				Redundancy, Latency, DataVolume)
		case IsolatedConflicting:
			// Conflicting duplicate reports: a shifted copy of every 3rd
			// point is interleaved, so co-temporal fixes disagree.
			conflicted := truth.Clone()
			for i := 0; i < truth.Len(); i += 3 {
				p := truth.Points[i]
				p.Pos = p.Pos.Add(geo.Pt(120, 0))
				conflicted.Points = append(conflicted.Points, p)
			}
			conflicted = trajectory.New(conflicted.ID, conflicted.Points)
			ctx := baseCtx
			ctx.Annotated = truth.Len() // conflicting extras are uninterpretable
			row.Effects = compare(base, AssessTrajectory(conflicted, ctx),
				Consistency, Interpretability)
		case Unverifiable:
			ctx := baseCtx
			ctx.Truth = nil
			after := AssessTrajectory(truth, ctx)
			// TruthVolume disappears entirely: record as a degradation
			// from the baseline count to zero.
			bv := base[TruthVolume]
			row.Effects = []Effect{{Dim: TruthVolume, Degraded: bv > 0, Baseline: bv, Observed: 0}}
			_ = after
		case HierarchicalMultiScaled:
			// Half the points quantized to a coarse 200 m grid (coarser
			// administrative scale), half kept fine: mixed resolutions.
			mixed := truth.Clone()
			for i := range mixed.Points {
				if i%2 == 0 {
					p := mixed.Points[i].Pos
					mixed.Points[i].Pos = geo.Pt(snap(p.X, 200), snap(p.Y, 200))
				}
			}
			ctx := baseCtx
			ctx.CellSize = 200              // effective resolution coarsens
			ctx.Annotated = truth.Len() / 2 // coarse-scale points lose semantics
			row.Effects = compare(base, AssessTrajectory(mixed, ctx),
				Consistency, Resolution, Interpretability)
		case SpatiallyDiscrete:
			// Observations confined to one corner of the region.
			confined := truth.Clone()
			confined.Points = nil
			for _, p := range truth.Points {
				if p.Pos.X < 300 && p.Pos.Y < 300 {
					confined.Points = append(confined.Points, p)
				}
			}
			if len(confined.Points) < 2 {
				confined = truth.Slice(0, 100)
			}
			row.Effects = compare(base, AssessTrajectory(confined, baseCtx),
				SpaceCoverage)
		default:
			row.Structural = true
		}
		rows = append(rows, row)
	}
	return rows
}

// mergeAlternating interleaves the points of two trajectories by time.
func mergeAlternating(a, b *trajectory.Trajectory) *trajectory.Trajectory {
	pts := append(append([]trajectory.Point(nil), a.Points...), b.Points...)
	return trajectory.New(a.ID, pts)
}

func snap(v, grid float64) float64 {
	return grid * float64(int(v/grid+0.5))
}

// compare builds effects for the listed dimensions by diffing two
// assessments. An effect is marked Degraded when the observed value is
// worse (per dimension polarity) than baseline by more than 1%.
func compare(base, after Assessment, dims ...Dimension) []Effect {
	var out []Effect
	for _, d := range dims {
		bv, okB := base[d]
		av, okA := after[d]
		if !okB || !okA {
			continue
		}
		worse := av < bv
		if !d.HigherIsBetter() {
			worse = av > bv
		}
		scale := maxAbs(av, bv)
		material := scale > 0 && abs(av-bv)/scale > 0.01
		out = append(out, Effect{Dim: d, Degraded: worse && material, Baseline: bv, Observed: av})
	}
	return out
}

func maxAbs(a, b float64) float64 {
	a, b = abs(a), abs(b)
	if a > b {
		return a
	}
	return b
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// RenderTable1 renders the empirical matrix in the paper's Table-1
// format: one row per characteristic with arrow-annotated issues.
func RenderTable1(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s| %s\n", "SID Characteristic", "Measured Quality Issues (↓ low / ↑ high)")
	b.WriteString(strings.Repeat("-", 90) + "\n")
	for _, r := range rows {
		if r.Structural {
			fmt.Fprintf(&b, "%-34s| -\n", r.Char)
			continue
		}
		var parts []string
		for _, e := range r.Effects {
			if !e.Degraded {
				continue
			}
			arrow := "↑"
			if e.Dim.HigherIsBetter() {
				arrow = "↓"
			}
			parts = append(parts, fmt.Sprintf("%s %s (%.3g→%.3g)", arrow, e.Dim, e.Baseline, e.Observed))
		}
		if len(parts) == 0 {
			parts = []string{"(no material change measured)"}
		}
		fmt.Fprintf(&b, "%-34s| %s\n", r.Char, strings.Join(parts, ", "))
	}
	return b.String()
}
