package simulate

import (
	"math"
	"math/rand"

	"sidq/internal/geo"
	"sidq/internal/trajectory"
)

// AddGaussianNoise returns a copy of tr with isotropic Gaussian noise
// of the given standard deviation (meters) added to every position.
func AddGaussianNoise(tr *trajectory.Trajectory, sigma float64, seed int64) *trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := tr.Clone()
	for i := range out.Points {
		out.Points[i].Pos = out.Points[i].Pos.Add(geo.Pt(
			rng.NormFloat64()*sigma,
			rng.NormFloat64()*sigma,
		))
	}
	return out
}

// InjectOutliers returns a copy of tr where each point independently
// becomes a gross outlier with probability rate: it is displaced by a
// vector of magnitude uniform in [minMag, 2*minMag] in a random
// direction. The returned boolean slice flags the injected outliers
// (ground truth for detector evaluation).
func InjectOutliers(tr *trajectory.Trajectory, rate, minMag float64, seed int64) (*trajectory.Trajectory, []bool) {
	rng := rand.New(rand.NewSource(seed))
	out := tr.Clone()
	flags := make([]bool, len(out.Points))
	for i := range out.Points {
		if rng.Float64() >= rate {
			continue
		}
		ang := rng.Float64() * 2 * math.Pi
		mag := minMag * (1 + rng.Float64())
		out.Points[i].Pos = out.Points[i].Pos.Add(geo.Pt(mag*math.Cos(ang), mag*math.Sin(ang)))
		flags[i] = true
	}
	return out, flags
}

// DropSamples returns a copy of tr with each interior point
// independently removed with the given probability (endpoints are
// kept), modeling incomplete collection.
func DropSamples(tr *trajectory.Trajectory, rate float64, seed int64) *trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := &trajectory.Trajectory{ID: tr.ID}
	for i, p := range tr.Points {
		if i != 0 && i != len(tr.Points)-1 && rng.Float64() < rate {
			continue
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// DuplicateSamples returns a copy of tr where each point is emitted
// again with the given probability, modeling duplicated reports from
// redundant IoT transmission.
func DuplicateSamples(tr *trajectory.Trajectory, rate float64, seed int64) *trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := &trajectory.Trajectory{ID: tr.ID}
	for _, p := range tr.Points {
		out.Points = append(out.Points, p)
		for rng.Float64() < rate {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// DelayReports returns a copy of tr where each point's timestamp is
// shifted later by an exponentially distributed transmission delay with
// the given mean (seconds). Positions are unchanged: this models
// latency between measurement and availability, and the delays are also
// returned so experiments can measure staleness.
func DelayReports(tr *trajectory.Trajectory, meanDelay float64, seed int64) (*trajectory.Trajectory, []float64) {
	rng := rand.New(rand.NewSource(seed))
	out := tr.Clone()
	delays := make([]float64, len(out.Points))
	for i := range out.Points {
		d := rng.ExpFloat64() * meanDelay
		delays[i] = d
		out.Points[i].T += d
	}
	return out, delays
}

// Corruption bundles the standard GPS corruption pipeline applied to a
// ground-truth trajectory: noise, outliers, and sample dropping. Fields
// left zero are skipped.
type Corruption struct {
	NoiseSigma  float64
	OutlierRate float64
	OutlierMag  float64
	DropRate    float64
	Seed        int64
}

// Apply corrupts truth and returns the degraded trajectory plus the
// outlier ground-truth flags (aligned to the returned trajectory's
// points; false where no outlier was injected).
func (c Corruption) Apply(truth *trajectory.Trajectory) (*trajectory.Trajectory, []bool) {
	cur := truth.Clone()
	if c.DropRate > 0 {
		cur = DropSamples(cur, c.DropRate, c.Seed+1)
	}
	if c.NoiseSigma > 0 {
		cur = AddGaussianNoise(cur, c.NoiseSigma, c.Seed+2)
	}
	flags := make([]bool, len(cur.Points))
	if c.OutlierRate > 0 {
		mag := c.OutlierMag
		if mag <= 0 {
			mag = 10 * math.Max(c.NoiseSigma, 1)
		}
		cur, flags = InjectOutliers(cur, c.OutlierRate, mag, c.Seed+3)
	}
	return cur, flags
}
