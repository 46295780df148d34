// Package core is sidq's quality-aware SID middleware — the
// integration layer the paper's "Open Issues" section calls for
// (quality management middleware, DQ-aware task planning, cross-layer
// DQ management). It ties the §2.2 cleaning task families together:
//
//   - Dataset bundles trajectories and STID readings with the context
//     needed to measure their quality;
//   - Stage adapts each cleaner to a common interface, tagged with the
//     taxonomy task it implements;
//   - Runner takes each trajectory through a list of stages in turn,
//     under a failure policy;
//   - Planner selects stages automatically from a quality assessment
//     against a target profile, and re-assesses between planning
//     rounds;
//   - the taxonomy registry reproduces the paper's Figure 2 as a
//     task x technique coverage matrix over this repository.
package core

import (
	"sidq/internal/geo"
	"sidq/internal/quality"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// Dataset is a bundle of spatial IoT data plus assessment context.
// The optional Truth enables the ground-truth dimensions.
type Dataset struct {
	Trajectories []*trajectory.Trajectory
	Readings     []stid.Reading

	// Assessment context.
	Truth            map[string]*trajectory.Trajectory // by trajectory id
	Region           geo.Rect
	ExpectedInterval float64 // nominal trajectory sampling period
	MaxSpeed         float64
	Now              float64
}

// trajectoryContext builds the quality context for one trajectory.
func (ds *Dataset) trajectoryContext(tr *trajectory.Trajectory) quality.TrajectoryContext {
	ctx := quality.TrajectoryContext{
		ExpectedInterval: ds.ExpectedInterval,
		MaxSpeed:         ds.MaxSpeed,
		Region:           ds.Region,
		Now:              ds.Now,
	}
	if ds.Truth != nil {
		ctx.Truth = ds.Truth[tr.ID]
	}
	return ctx
}

// Assess measures the dataset's quality: per-trajectory assessments are
// averaged dimension-wise and merged with the readings assessment
// (trajectory values win on conflicts, which only matter for
// DataVolume; both are also available individually via AssessParts).
func (ds *Dataset) Assess() quality.Assessment {
	trA, rdA := ds.AssessParts()
	return mergeAssessments(trA, rdA)
}

// mergeAssessments combines the trajectory-side and readings-side
// assessments (trajectory values win on conflicts except DataVolume,
// which adds up).
func mergeAssessments(trA, rdA quality.Assessment) quality.Assessment {
	out := quality.Assessment{}
	for k, v := range rdA {
		out[k] = v
	}
	for k, v := range trA {
		out[k] = v
	}
	if tv, ok1 := trA[quality.DataVolume]; ok1 {
		if rv, ok2 := rdA[quality.DataVolume]; ok2 {
			out[quality.DataVolume] = tv + rv
		}
	}
	return out
}

// AssessParts returns the trajectory-side and readings-side assessments
// separately. Per-trajectory assessments fold dimension-wise in
// trajectory order.
func (ds *Dataset) AssessParts() (quality.Assessment, quality.Assessment) {
	var trA quality.Assessment
	if len(ds.Trajectories) > 0 {
		sums := map[quality.Dimension]float64{}
		counts := map[quality.Dimension]int{}
		for _, tr := range ds.Trajectories {
			for k, v := range quality.AssessTrajectory(tr, ds.trajectoryContext(tr)) {
				sums[k] += v
				counts[k]++
			}
		}
		trA = quality.Assessment{}
		for k, s := range sums {
			if k == quality.DataVolume || k == quality.TruthVolume {
				trA[k] = s // volumes add up
				continue
			}
			trA[k] = s / float64(counts[k])
		}
	}
	var rdA quality.Assessment
	if len(ds.Readings) > 0 {
		rdA = quality.AssessReadings(ds.Readings, quality.ReadingsContext{Region: ds.Region, Now: ds.Now})
	}
	if trA == nil {
		trA = quality.Assessment{}
	}
	if rdA == nil {
		rdA = quality.Assessment{}
	}
	return trA, rdA
}
