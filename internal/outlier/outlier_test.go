package outlier

import (
	"fmt"
	"math"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

func corruptedWalk(seed int64, rate float64) (*trajectory.Trajectory, *trajectory.Trajectory, []bool) {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(2000, 2000)}
	truth := simulate.RandomWalk("w", region, 600, 3, 1, seed)
	noisy := simulate.AddGaussianNoise(truth, 2, seed+1)
	corrupted, flags := simulate.InjectOutliers(noisy, rate, 150, seed+2)
	return truth, corrupted, flags
}

func TestSpeedConstraintDetects(t *testing.T) {
	_, corrupted, truth := corruptedWalk(1, 0.05)
	flags := SpeedConstraint(corrupted.Points, 15, nil)
	s := Evaluate(flags, truth)
	if s.Precision() < 0.8 {
		t.Fatalf("precision = %v (%+v)", s.Precision(), s)
	}
	if s.Recall() < 0.6 {
		t.Fatalf("recall = %v (%+v)", s.Recall(), s)
	}
}

func TestSpeedConstraintDegenerate(t *testing.T) {
	short := trajectory.New("s", []trajectory.Point{{T: 0}, {T: 1}})
	for _, f := range SpeedConstraint(short.Points, 10, nil) {
		if f {
			t.Fatal("short trajectory flagged")
		}
	}
	_, corrupted, _ := corruptedWalk(2, 0.05)
	for _, f := range SpeedConstraint(corrupted.Points, 0, nil) {
		if f {
			t.Fatal("zero max speed should disable")
		}
	}
}

func TestStatisticalDetects(t *testing.T) {
	_, corrupted, truth := corruptedWalk(3, 0.05)
	flags := Statistical(corrupted.Points, StatisticalOptions{}, nil, nil)
	s := Evaluate(flags, truth)
	if s.Precision() < 0.7 || s.Recall() < 0.6 {
		t.Fatalf("statistical P=%v R=%v (%+v)", s.Precision(), s.Recall(), s)
	}
}

func TestStatisticalCleanDataLowFalsePositives(t *testing.T) {
	truth, _, _ := corruptedWalk(4, 0)
	flags := Statistical(truth.Points, StatisticalOptions{}, nil, nil)
	fp := 0
	for _, f := range flags {
		if f {
			fp++
		}
	}
	if float64(fp)/float64(truth.Len()) > 0.02 {
		t.Fatalf("clean data false positives: %d of %d", fp, truth.Len())
	}
}

func TestPredictionDetectsAndRepairs(t *testing.T) {
	truthTr, corrupted, truth := corruptedWalk(5, 0.05)
	repaired, flags := Prediction(corrupted, PredictionOptions{
		ProcessNoise: 1, MeasNoise: 4, Threshold: 6, Repair: true,
	})
	s := Evaluate(flags, truth)
	if s.Precision() < 0.7 || s.Recall() < 0.6 {
		t.Fatalf("prediction P=%v R=%v (%+v)", s.Precision(), s.Recall(), s)
	}
	// Repair must reduce positional error versus the corrupted input.
	rawErr := trajectory.RMSEAgainst(corrupted, truthTr)
	repErr := trajectory.RMSEAgainst(repaired, truthTr)
	if repErr >= rawErr {
		t.Fatalf("repair: raw %v -> repaired %v", rawErr, repErr)
	}
	// Length preserved (repair, not removal).
	if repaired.Len() != corrupted.Len() {
		t.Fatal("repair changed length")
	}
}

// A row with a NaN coordinate is a missing measurement to the filter,
// not a state: the detector must still see the spike that follows it.
func TestPredictionSeesPastNonFiniteRow(t *testing.T) {
	pts := make([]trajectory.Point, 100)
	for i := range pts {
		pts[i] = trajectory.Point{T: float64(i), Pos: geo.Pt(float64(i)*3, float64(i)*1.5)}
	}
	tr := simulate.AddGaussianNoise(trajectory.New("t", pts), 2, 9)
	tr.Points[50].Pos.X = math.NaN()
	tr.Points[70].Pos = tr.Points[70].Pos.Add(geo.Pt(400, -400))
	repaired, flags := Prediction(tr, PredictionOptions{MeasNoise: 2, Repair: true})
	if !flags[70] {
		t.Fatal("spike 20 rows after a NaN row not flagged")
	}
	if d := repaired.Points[70].Pos.Dist(pts[70].Pos); !(d < 20) {
		t.Fatalf("repaired spike is %v m from the truth", d)
	}
}

// A non-finite fix is never the filter's state: a 150 m spike is
// flagged the same with and without a non-finite first row, and a
// non-finite row right after a diverged run does not become the point
// the filter restarts at.
func TestPredictionNonFiniteSeed(t *testing.T) {
	pts := make([]trajectory.Point, 80)
	for i := range pts {
		pts[i] = trajectory.Point{T: float64(i), Pos: geo.Pt(float64(i)*3, float64(i)*1.5)}
	}
	tr := simulate.AddGaussianNoise(trajectory.New("t", pts), 2, 11)
	tr.Points[40].Pos = tr.Points[40].Pos.Add(geo.Pt(150, 0))
	opt := PredictionOptions{MeasNoise: 2}
	_, want := Prediction(tr, opt)
	if !want[40] {
		t.Fatal("spike not flagged")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []geo.Point{geo.Pt(nan, nan), geo.Pt(nan, 0), geo.Pt(inf, 0), geo.Pt(0, -inf)} {
		first := tr.Clone()
		first.Points[0].Pos = bad
		if _, got := Prediction(first, opt); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("first row %v: flags %v, want %v", bad, flagged(got), flagged(want))
		}
	}

	// Rows 20-22 jump 300 m: three flags end the run, and the filter
	// must restart at row 24, not at the NaN row 23.
	jump := tr.Clone()
	for i := 20; i < len(jump.Points); i++ {
		jump.Points[i].Pos = jump.Points[i].Pos.Add(geo.Pt(0, 300))
	}
	jump.Points[23].Pos = geo.Pt(nan, nan)
	_, got := Prediction(jump, opt)
	if !got[20] || !got[21] || !got[22] || !got[40] {
		t.Errorf("jump then NaN: flags %v, want 20, 21, 22 and the spike at 40", flagged(got))
	}
}

// A row with a NaN or infinite stamp is a missing step: it is never
// flagged, and every other row is flagged as it is without that row —
// the spike ten rows later included.
func TestPredictionNonFiniteStampIsAMissingStep(t *testing.T) {
	pts := make([]trajectory.Point, 80)
	for i := range pts {
		pts[i] = trajectory.Point{T: float64(i), Pos: geo.Pt(float64(i)*3, float64(i)*1.5)}
	}
	tr := simulate.AddGaussianNoise(trajectory.New("t", pts), 2, 11)
	tr.Points[40].Pos = tr.Points[40].Pos.Add(geo.Pt(150, 0))
	opt := PredictionOptions{MeasNoise: 2}
	without := tr.Clone()
	without.Points = append(without.Points[:30], without.Points[31:]...)
	_, want := Prediction(without, opt)
	if !want[39] {
		t.Fatal("spike not flagged")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		stamp := tr.Clone()
		stamp.Points[30].T = bad
		_, got := Prediction(stamp, opt)
		if got[30] {
			t.Errorf("stamp %v: the row itself is flagged", bad)
		}
		if got = append(got[:30], got[31:]...); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("stamp %v: flags %v, want %v", bad, flagged(got), flagged(want))
		}
	}
}

// flagged lists the indices of the set flags.
func flagged(flags []bool) []int {
	var out []int
	for i, f := range flags {
		if f {
			out = append(out, i)
		}
	}
	return out
}

func TestPredictionEmpty(t *testing.T) {
	out, flags := Prediction(&trajectory.Trajectory{}, PredictionOptions{})
	if out.Len() != 0 || len(flags) != 0 {
		t.Fatal("empty prediction")
	}
}

func TestRemove(t *testing.T) {
	tr := trajectory.New("x", []trajectory.Point{
		{T: 0, Pos: geo.Pt(0, 0)},
		{T: 1, Pos: geo.Pt(1, 0)},
		{T: 2, Pos: geo.Pt(2, 0)},
	})
	out := Remove(tr, []bool{false, true, false})
	if out.Len() != 2 || out.Points[1].T != 2 {
		t.Fatalf("remove: %+v", out.Points)
	}
	// Short flag slice keeps the tail.
	out = Remove(tr, []bool{true})
	if out.Len() != 2 {
		t.Fatal("short flags")
	}
}

func TestEvaluateScores(t *testing.T) {
	pred := []bool{true, false, true, false}
	truth := []bool{true, true, false, false}
	s := Evaluate(pred, truth)
	if s.TP != 1 || s.FP != 1 || s.FN != 1 {
		t.Fatalf("score = %+v", s)
	}
	if s.Precision() != 0.5 || s.Recall() != 0.5 || s.F1() != 0.5 {
		t.Fatalf("PRF = %v %v %v", s.Precision(), s.Recall(), s.F1())
	}
	// Perfect empty case.
	e := Evaluate([]bool{false}, []bool{false})
	if e.Precision() != 1 || e.Recall() != 1 || e.F1() != 1 {
		t.Fatal("empty score should be perfect")
	}
	// Truth longer than prediction counts as misses.
	m := Evaluate([]bool{false}, []bool{false, true})
	if m.FN != 1 {
		t.Fatalf("mismatched lengths: %+v", m)
	}
}

func stidWorkload(seed int64, rate float64) ([]stid.Reading, []bool, *simulate.Field) {
	f := simulate.NewField(simulate.FieldOptions{Seed: seed})
	_, readings := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: 30, Interval: 300, Duration: 7200, NoiseSigma: 1, Seed: seed + 1,
	})
	corrupted, flags := simulate.InjectValueOutliers(readings, rate, 60, seed+2)
	return corrupted, flags, f
}

func TestTemporalDetectsSpikes(t *testing.T) {
	readings, truth, _ := stidWorkload(10, 0.04)
	flags := Temporal(readings, TemporalOptions{})
	s := Evaluate(flags, truth)
	if s.Precision() < 0.8 || s.Recall() < 0.7 {
		t.Fatalf("temporal P=%v R=%v (%+v)", s.Precision(), s.Recall(), s)
	}
}

func TestSpatialDetectsSpikes(t *testing.T) {
	readings, truth, _ := stidWorkload(11, 0.04)
	flags := Spatial(readings, SpatialOptions{Neighbors: 6, TimeWindow: 10})
	s := Evaluate(flags, truth)
	if s.Precision() < 0.5 || s.Recall() < 0.5 {
		t.Fatalf("spatial P=%v R=%v (%+v)", s.Precision(), s.Recall(), s)
	}
}

func TestSpatioTemporalHigherPrecision(t *testing.T) {
	readings, truth, _ := stidWorkload(12, 0.04)
	st := SpatioTemporal(readings, TemporalOptions{}, SpatialOptions{Neighbors: 6, TimeWindow: 10})
	sScore := Evaluate(Spatial(readings, SpatialOptions{Neighbors: 6, TimeWindow: 10}), truth)
	stScore := Evaluate(st, truth)
	// Requiring both signals should not lower precision.
	if stScore.Precision() < sScore.Precision()-1e-9 {
		t.Fatalf("ST precision %v < spatial precision %v", stScore.Precision(), sScore.Precision())
	}
}

func TestTemporalCleanDataFewFalsePositives(t *testing.T) {
	readings, _, _ := stidWorkload(13, 0)
	flags := Temporal(readings, TemporalOptions{})
	fp := 0
	for _, f := range flags {
		if f {
			fp++
		}
	}
	if float64(fp)/float64(len(readings)) > 0.03 {
		t.Fatalf("clean-data false positives: %d / %d", fp, len(readings))
	}
}

func TestRemoveReadings(t *testing.T) {
	rs := []stid.Reading{{SensorID: "a"}, {SensorID: "b"}, {SensorID: "c"}}
	out := RemoveReadings(rs, []bool{true, false, true})
	if len(out) != 1 || out[0].SensorID != "b" {
		t.Fatalf("remove readings: %+v", out)
	}
}

func TestRemovalImprovesDownstreamAccuracy(t *testing.T) {
	readings, flags, f := stidWorkload(14, 0.05)
	detected := Temporal(readings, TemporalOptions{})
	cleaned := RemoveReadings(readings, detected)
	errOf := func(rs []stid.Reading) float64 {
		var sum float64
		for _, r := range rs {
			d := r.Value - f.Value(r.Pos, r.T)
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum / float64(len(rs))
	}
	if errOf(cleaned) >= errOf(readings) {
		t.Fatalf("cleaning did not reduce error: %v vs %v", errOf(cleaned), errOf(readings))
	}
	_ = flags
}
