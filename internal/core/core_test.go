package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/quality"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// dirtyDataset builds a dataset with injected noise, outliers,
// duplicates, and dropouts, plus ground truth.
func dirtyDataset(seed int64) *Dataset {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Now:              600,
	}
	for i := 0; i < 3; i++ {
		truth := simulate.RandomWalk("v"+string(rune('0'+i)), region, 600, 2, 1, seed+int64(i))
		ds.Truth[truth.ID] = truth
		// Noise before duplication so duplicates stay exact copies.
		dirty := simulate.AddGaussianNoise(truth, 6, seed+20+int64(i))
		dirty, _ = simulate.InjectOutliers(dirty, 0.03, 120, seed+30+int64(i))
		dirty = simulate.DropSamples(dirty, 0.2, seed+40+int64(i))
		dirty = simulate.DuplicateSamples(dirty, 0.1, seed+10+int64(i))
		ds.Trajectories = append(ds.Trajectories, dirty)
	}
	f := simulate.NewField(simulate.FieldOptions{Seed: seed + 100})
	_, readings := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: 20, Interval: 60, Duration: 600, NoiseSigma: 1, Seed: seed + 101,
	})
	readings, _ = simulate.InjectValueOutliers(readings, 0.05, 60, seed+102)
	ds.Readings = readings
	return ds
}

func TestDatasetAssess(t *testing.T) {
	ds := dirtyDataset(1)
	a := ds.Assess()
	if a[quality.DataVolume] <= 0 {
		t.Fatal("no volume")
	}
	if v, ok := a[quality.Accuracy]; !ok || v <= 0 || v >= 1 {
		t.Fatalf("accuracy = %v (%v)", v, ok)
	}
	if v := a[quality.Consistency]; v >= 0.995 {
		t.Fatalf("dirty data should violate consistency: %v", v)
	}
	if v := a[quality.Redundancy]; v <= 0 {
		t.Fatalf("duplicates not measured: %v", v)
	}
	// Parts are separable.
	trA, rdA := ds.AssessParts()
	if trA[quality.DataVolume] <= 0 || rdA[quality.DataVolume] <= 0 {
		t.Fatal("parts missing volume")
	}
}

func TestPipelineImprovesQuality(t *testing.T) {
	ds := dirtyDataset(2)
	before := ds.Assess()
	cleaned, reports, _ := DefaultRunner().Run(context.Background(), ds, []Stage{
		DeduplicateStage{},
		OutlierRemovalStage{},
		SmoothingStage{},
		ImputeStage{},
	})
	after := cleaned.Assess()
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	if after[quality.Accuracy] <= before[quality.Accuracy] {
		t.Fatalf("accuracy: %v -> %v", before[quality.Accuracy], after[quality.Accuracy])
	}
	if after[quality.PrecisionError] >= before[quality.PrecisionError] {
		t.Fatalf("precision error: %v -> %v", before[quality.PrecisionError], after[quality.PrecisionError])
	}
	if after[quality.Redundancy] >= before[quality.Redundancy] {
		t.Fatalf("redundancy: %v -> %v", before[quality.Redundancy], after[quality.Redundancy])
	}
	if after[quality.Consistency] <= before[quality.Consistency] {
		t.Fatalf("consistency: %v -> %v", before[quality.Consistency], after[quality.Consistency])
	}
	// Original dataset untouched (pipeline clones).
	again := ds.Assess()
	for _, d := range quality.AllDimensions() {
		if again[d] != before[d] {
			t.Fatalf("pipeline mutated input: %v changed", d)
		}
	}
	if reports[2].Stage != "kalman-smoothing" {
		t.Fatalf("third report is for %q", reports[2].Stage)
	}
}

func TestStageOrderMatters(t *testing.T) {
	// Ablation: smoothing before outlier removal drags estimates toward
	// the outliers; the planner's order should beat the reversed order.
	ds := dirtyDataset(3)
	cleanedGood, _, _ := DefaultRunner().Run(context.Background(), ds, []Stage{OutlierRemovalStage{}, SmoothingStage{}})
	cleanedBad, _, _ := DefaultRunner().Run(context.Background(), ds, []Stage{SmoothingStage{}, OutlierRemovalStage{}})
	ag := cleanedGood.Assess()[quality.Accuracy]
	ab := cleanedBad.Assess()[quality.Accuracy]
	if ag <= ab {
		t.Fatalf("outliers-first (%v) should beat smoothing-first (%v)", ag, ab)
	}
}

func TestPlannerSelectsNeededStages(t *testing.T) {
	ds := dirtyDataset(4)
	stages := Plan(ds.Assess(), DefaultTargets())
	names := map[string]bool{}
	for _, s := range stages {
		names[s.Name()] = true
	}
	// The dirty dataset violates redundancy, consistency, precision, and
	// completeness, so all four families should be planned.
	for _, want := range []string{"deduplicate", "outlier-removal", "kalman-smoothing", "interpolation-impute"} {
		if !names[want] {
			t.Fatalf("planner missed %q (got %v)", want, names)
		}
	}
	// A clean dataset needs nothing.
	clean := &Dataset{
		Region:           ds.Region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
	}
	for id, tr := range ds.Truth {
		clean.Trajectories = append(clean.Trajectories, tr.Clone())
		_ = id
	}
	if got := Plan(clean.Assess(), DefaultTargets()); len(got) != 0 {
		var names []string
		for _, s := range got {
			names = append(names, s.Name())
		}
		t.Fatalf("clean data planned stages: %v", names)
	}
}

func TestPlanAndRunEndToEnd(t *testing.T) {
	ds := dirtyDataset(5)
	cleaned, stages, reports, _ := PlanAndRunIterativeWith(context.Background(), nil, ds, DefaultTargets(), 1)
	if len(stages) == 0 || len(reports) != len(stages) {
		t.Fatalf("stages %d reports %d", len(stages), len(reports))
	}
	if cleaned.Assess()[quality.Accuracy] <= ds.Assess()[quality.Accuracy] {
		t.Fatal("planned pipeline did not improve accuracy")
	}
}

func TestRouteRecoverStage(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 8, NY: 8, Spacing: 120, Seed: 7})
	trips := simulate.TripsWithRoutes(g, simulate.TripOptions{NumObjects: 2, MinHops: 8, Speed: 12, SampleInterval: 2, Seed: 8})
	ds := &Dataset{
		Truth:    map[string]*trajectory.Trajectory{},
		Region:   g.Bounds(),
		MaxSpeed: 20,
	}
	for _, trip := range trips {
		ds.Truth[trip.Truth.ID] = trip.Truth
		noisy := simulate.AddGaussianNoise(trip.Truth.Thin(5), 10, 9)
		ds.Trajectories = append(ds.Trajectories, noisy)
	}
	st := RouteRecoverStage{Graph: g, Snapper: roadnet.NewSnapper(g, 100)}
	before := ds.Assess()[quality.Accuracy]
	cleaned, _, _ := DefaultRunner().Run(context.Background(), ds, []Stage{st})
	if after := cleaned.Assess()[quality.Accuracy]; after <= before {
		t.Fatalf("route recovery: accuracy %v -> %v", before, after)
	}
	// Nil graph is a no-op.
	DefaultRunner().Run(context.Background(), ds, []Stage{RouteRecoverStage{}})
}

func TestThematicRepairStage(t *testing.T) {
	ds := dirtyDataset(7)
	field := simulate.NewField(simulate.FieldOptions{Seed: 7 + 100}) // the one dirtyDataset sampled
	meanAbsErr := func(rs []stid.Reading) float64 {
		var sum float64
		for _, r := range rs {
			sum += math.Abs(r.Value - field.Value(r.Pos, r.T))
		}
		return sum / float64(len(rs))
	}
	_, beforeRd := ds.AssessParts()
	cleaned, _, _ := DefaultRunner().Run(context.Background(), ds, []Stage{ThematicRepairStage{}})
	_, afterRd := cleaned.AssessParts()
	if before, after := meanAbsErr(ds.Readings), meanAbsErr(cleaned.Readings); after >= before {
		t.Fatalf("thematic repair: readings error against the field %v -> %v", before, after)
	}
	// Repair preserves volume (unlike removal).
	if afterRd[quality.DataVolume] != beforeRd[quality.DataVolume] {
		t.Fatal("repair should not change reading count")
	}
}

// TestImputeCountsRefusedResamples pins the stage's three outcomes: a
// resampled trajectory is replaced, a too-short one is a silent no-op,
// and one whose resampling is refused (interval too small for its span)
// fails its call, keeps its raw points and is counted in the stage's
// PartialError.
func TestImputeCountsRefusedResamples(t *testing.T) {
	pt := func(t float64) trajectory.Point { return trajectory.Point{T: t, Pos: geo.Pt(t, 0)} }
	fine := trajectory.New("fine", []trajectory.Point{pt(0), pt(10)})
	short := trajectory.New("short", []trajectory.Point{pt(0)})
	dense := trajectory.New("dense", []trajectory.Point{pt(0), pt(1e9)})
	ds := &Dataset{Trajectories: []*trajectory.Trajectory{fine, short, dense}, ExpectedInterval: 1}
	out, reports, err := DefaultRunner().Run(context.Background(), ds, []Stage{ImputeStage{}})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PartialError
	if rep := reports[0]; !errors.As(rep.Err, &pe) || pe.Failed != 1 || pe.Total != 3 || rep.Skipped ||
		!errors.Is(rep.Err, trajectory.ErrResampleTooDense) {
		t.Fatalf("report = %+v, want a 1/3 PartialError wrapping ErrResampleTooDense", rep)
	}
	if out.Trajectories[0].Len() != 11 {
		t.Fatalf("resampled trajectory has %d points, want 11", out.Trajectories[0].Len())
	}
	if out.Trajectories[1] != short || out.Trajectories[2] != dense {
		t.Fatal("too-short or refused trajectory was replaced")
	}
}

// TestImputeBudgetIsSpentInTrajectoryOrder: the round's trajectories
// share one budget of trajectory.MaxResamplePoints output points, spent
// in input order, so the trajectory that would cross what is left of it
// is refused and the ones after it still fit.
func TestImputeBudgetIsSpentInTrajectoryOrder(t *testing.T) {
	pt := func(t float64) trajectory.Point { return trajectory.Point{T: t, Pos: geo.Pt(t, 0)} }
	span := func(id string, s float64) *trajectory.Trajectory {
		return trajectory.New(id, []trajectory.Point{pt(0), pt(s)})
	}
	const most = trajectory.MaxResamplePoints * 3 / 4
	ds := &Dataset{ExpectedInterval: 1, Trajectories: []*trajectory.Trajectory{
		span("first", most), span("over", most), span("small", 10),
	}}
	out, reports, err := DefaultRunner().Run(context.Background(), ds, []Stage{ImputeStage{}})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PartialError
	if !errors.As(reports[0].Err, &pe) || pe.Failed != 1 {
		t.Fatalf("report = %+v, want the one trajectory over the budget refused", reports[0])
	}
	if got := []int{out.Trajectories[0].Len(), out.Trajectories[1].Len(), out.Trajectories[2].Len()}; !reflect.DeepEqual(got, []int{most + 1, 2, 11}) {
		t.Fatalf("lengths %v, want [%d 2 11]", got, most+1)
	}
}

func TestTaxonomyCoverage(t *testing.T) {
	entries := Taxonomy()
	if len(entries) != 67 {
		t.Fatalf("taxonomy entries = %d, want the 67 cells of Figure 2", len(entries))
	}
	// Every §2.2 task family appears.
	for _, family := range []string{
		"location refinement", "uncertainty elimination", "outlier removal",
		"fault correction", "data integration", "data reduction",
		"querying", "analysis", "decision-making",
	} {
		found := false
		for _, e := range entries {
			if strings.HasPrefix(e.Task, family) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("taxonomy missing family %q", family)
		}
	}
	// The starred symbols are exactly the ones ROADMAP item 8(b) owes an
	// E-row; surface_test.go at the module root holds each star to the
	// code, this holds the list to the documents. A cell names an
	// experiment only for symbols something reaches.
	var unmeasured []string
	for _, e := range entries {
		if len(e.Refs)+len(e.Unmeasured) == 0 {
			t.Errorf("cell %q names no symbol", e.Task)
		}
		if len(e.Refs) == 0 && len(e.Measured) > 0 {
			t.Errorf("cell %q is measured by %v but every symbol is starred", e.Task, e.Measured)
		}
		for _, r := range e.Unmeasured {
			pkg, name := refName(r)
			unmeasured = append(unmeasured, strings.TrimPrefix(pkg, "internal/")+"."+name)
		}
	}
	sort.Strings(unmeasured)
	want := []string{
		"analysis.BurstDetector", "analysis.ClusterTrajectories", "analysis.CoEvolving",
		"analysis.ExtendPatterns", "analysis.FrequentPairs", "analysis.TopKSimilar",
		"decide.AdaptiveSampler", "decide.Markov2Predictor", "decide.PUSiteSelection",
		"faults.ZoneMonitor",
		"integrate.AlignScales", "integrate.AttachReadings",
		"reduce.DirectionPreserving",
		"uncertain.CoTraining", "uncertain.ExponentialSmooth", "uncertain.MultiTaskTrend", "uncertain.TransferTrend",
		"uquery.ClassifyRange", "uquery.DiscreteObject", "uquery.KNNMonitor", "uquery.PossiblyDefinitely",
	}
	if !reflect.DeepEqual(unmeasured, want) {
		t.Errorf("unmeasured symbols:\n got %v\nwant %v", unmeasured, want)
	}
	fig := RenderFigure2()
	for _, layer := range []string{"[localization layer]", "[pre-processing layer]", "[business layer]", "[middleware layer]"} {
		if !strings.Contains(fig, layer) {
			t.Fatalf("figure missing %q", layer)
		}
	}
	// Names come from the references: a function, a method expression
	// and a type, with the star and the measured-by column.
	for _, row := range []string{
		"| internal/faults: ResolveConflicts ",
		"| internal/refine: Kalman, KalmanSmoothTrajectory ",
		"| internal/uncertain: MovingAverage, ExponentialSmooth* ",
		"| internal/uncertain: FuseSources (bias-corrected) ",
		"| E4, E4b\n",
		"| internal/core: Plan                                    | -\n",
	} {
		if !strings.Contains(fig, row) {
			t.Errorf("figure missing %q", row)
		}
	}
}

func TestTaskString(t *testing.T) {
	if OutlierRemoval.String() != "outlier removal" {
		t.Fatal("task name")
	}
	if !strings.Contains(Task(99).String(), "task(") {
		t.Fatal("unknown task")
	}
}

func TestPlanAndRunIterativeClosesInducedDeficits(t *testing.T) {
	// Dense outliers: removing them drops completeness below target,
	// which only a second planning round can see and repair.
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
	}
	truth := simulate.RandomWalk("v0", region, 600, 2, 1, 50)
	ds.Truth[truth.ID] = truth
	dirty := simulate.AddGaussianNoise(truth, 3, 51)
	dirty, _ = simulate.InjectOutliers(dirty, 0.2, 150, 52)
	ds.Trajectories = append(ds.Trajectories, dirty)

	targets := DefaultTargets()
	_, oneStages, _, _ := PlanAndRunIterativeWith(context.Background(), nil, ds, targets, 1)
	iterDS, iterStages, _, _ := PlanAndRunIterativeWith(context.Background(), nil, ds, targets, 3)
	if len(iterStages) < len(oneStages) {
		t.Fatalf("iterative planned fewer stages: %d vs %d", len(iterStages), len(oneStages))
	}
	// The iterative run must end with completeness at or above the
	// single-pass run (the induced deficit is repaired).
	single, _, _, _ := PlanAndRunIterativeWith(context.Background(), nil, ds, targets, 1)
	if iterDS.Assess()[quality.Completeness] < single.Assess()[quality.Completeness]-1e-9 {
		t.Fatalf("iterative completeness %v < single-pass %v",
			iterDS.Assess()[quality.Completeness], single.Assess()[quality.Completeness])
	}
	// Termination: stages are never repeated.
	seen := map[string]int{}
	for _, s := range iterStages {
		seen[s.Name()]++
		if seen[s.Name()] > 1 {
			t.Fatalf("stage %q applied twice", s.Name())
		}
	}
}

func TestPlanAndRunIterativeCleanDataNoops(t *testing.T) {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	truth := simulate.RandomWalk("v0", region, 400, 2, 1, 60)
	ds := &Dataset{
		Trajectories:     []*trajectory.Trajectory{truth},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
	}
	_, stages, reports, _ := PlanAndRunIterativeWith(context.Background(), nil, ds, DefaultTargets(), 3)
	if len(stages) != 0 || len(reports) != 0 {
		t.Fatalf("clean data planned %d stages", len(stages))
	}
}

// nanDataset is three noisy walks; with nan, the first has a NaN x at
// row 100, what a client's garbage field parses to.
func nanDataset(nan bool) *Dataset {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &Dataset{Region: region}
	for i := 0; i < 3; i++ {
		truth := simulate.RandomWalk("v"+string(rune('0'+i)), region, 200, 2, 1, 50+int64(i))
		ds.Trajectories = append(ds.Trajectories, simulate.AddGaussianNoise(truth, 10, 60+int64(i)))
	}
	if nan {
		ds.Trajectories[0].Points[100].Pos.X = math.NaN()
	}
	return ds
}

// TestNaNSampleStillPlansSmoothing: one non-finite sample must not make
// the dataset's precision error NaN, which every planner comparison
// reads as "target met".
func TestNaNSampleStillPlansSmoothing(t *testing.T) {
	for _, nan := range []bool{false, true} {
		a := nanDataset(nan).Assess()
		if v := a[quality.PrecisionError]; math.IsNaN(v) || v <= DefaultTargets().MaxPrecisionError {
			t.Fatalf("nan=%v: precision error %v", nan, v)
		}
		planned := false
		for _, st := range Plan(a, DefaultTargets()) {
			planned = planned || st.Name() == SmoothingStage{}.Name()
		}
		if !planned {
			t.Fatalf("nan=%v: smoothing not planned from %v", nan, a)
		}
	}
}

// TestSmoothingSurvivesNaNSample: the smoother must not take a NaN
// noise level from a trajectory with one NaN sample, which made every
// smoothed point NaN.
func TestSmoothingSurvivesNaNSample(t *testing.T) {
	ds, reports, err := DefaultRunner().Run(context.Background(), nanDataset(true), []Stage{SmoothingStage{}})
	if err != nil || reports[0].Err != nil {
		t.Fatal(err, reports[0].Err)
	}
	tr := ds.Trajectories[0]
	for i, p := range tr.Points {
		if math.IsNaN(p.Pos.X) || math.IsNaN(p.Pos.Y) {
			t.Fatalf("smoothed point %d of %d is %v", i, tr.Len(), p.Pos)
		}
	}
}
