package quality

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

func region() geo.Rect { return geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)} }

func cleanWalk(seed int64) *trajectory.Trajectory {
	return simulate.RandomWalk("w", region(), 800, 2, 1, seed)
}

func TestDimensionStringsAndPolarity(t *testing.T) {
	for _, d := range AllDimensions() {
		if strings.Contains(d.String(), "dimension(") {
			t.Fatalf("missing name for %d", int(d))
		}
	}
	if !Accuracy.HigherIsBetter() || PrecisionError.HigherIsBetter() {
		t.Fatal("polarity wrong")
	}
	if Dimension(99).String() == "" {
		t.Fatal("unknown dimension should still render")
	}
}

func TestAssessCleanTrajectory(t *testing.T) {
	truth := cleanWalk(1)
	ctx := TrajectoryContext{
		Truth: truth, ExpectedInterval: 1, MaxSpeed: 10,
		Region: region(), CellSize: 50, Now: 800,
	}
	a := AssessTrajectory(truth, ctx)
	if v := a[Accuracy]; v != 1 {
		t.Fatalf("self accuracy = %v", v)
	}
	if v := a[Consistency]; v != 1 {
		t.Fatalf("clean consistency = %v", v)
	}
	if v := a[Completeness]; v < 0.99 {
		t.Fatalf("clean completeness = %v", v)
	}
	if v := a[Redundancy]; v != 0 {
		t.Fatalf("clean redundancy = %v", v)
	}
	if v := a[PrecisionError]; v > 0.6 {
		t.Fatalf("smooth walk roughness = %v", v)
	}
	if a[DataVolume] != 800 {
		t.Fatalf("volume = %v", a[DataVolume])
	}
	if a[TimeSparsity] != 1 {
		t.Fatalf("sparsity = %v", a[TimeSparsity])
	}
	if a[Staleness] != 1 { // last sample at t=799, now=800
		t.Fatalf("staleness = %v", a[Staleness])
	}
}

func TestAssessNoisyTrajectoryDegrades(t *testing.T) {
	truth := cleanWalk(2)
	noisy := simulate.AddGaussianNoise(truth, 10, 3)
	ctx := TrajectoryContext{Truth: truth, ExpectedInterval: 1, MaxSpeed: 10, Region: region(), Now: 800}
	base := AssessTrajectory(truth, ctx)
	deg := AssessTrajectory(noisy, ctx)
	if deg[Accuracy] >= base[Accuracy] {
		t.Fatal("noise did not reduce accuracy")
	}
	if deg[PrecisionError] <= base[PrecisionError] {
		t.Fatal("noise did not raise precision error")
	}
	// Roughness should estimate sigma=10 within a factor.
	if deg[PrecisionError] < 5 || deg[PrecisionError] > 20 {
		t.Fatalf("precision error = %v, want ~10", deg[PrecisionError])
	}
	worse := deg.WorseThan(base, 0.05)
	found := map[Dimension]bool{}
	for _, d := range worse {
		found[d] = true
	}
	if !found[Accuracy] || !found[PrecisionError] {
		t.Fatalf("WorseThan missed degradations: %v", worse)
	}
}

func TestConsistencyFlagsSpeedViolations(t *testing.T) {
	truth := cleanWalk(4)
	corrupted, _ := simulate.InjectOutliers(truth, 0.05, 200, 5)
	ctx := TrajectoryContext{MaxSpeed: 10}
	a := AssessTrajectory(corrupted, ctx)
	if a[Consistency] >= 0.99 {
		t.Fatalf("outliers not flagged: consistency = %v", a[Consistency])
	}
	// Non-monotone timestamps also violate.
	bad := truth.Clone()
	bad.Points[10].T = bad.Points[9].T // duplicate timestamp -> Inf speed
	if got := AssessTrajectory(bad, ctx)[Consistency]; got >= 1 {
		t.Fatalf("bad timestamps not flagged: %v", got)
	}
}

// TestConsistencyBadTimestamps: a segment whose stamp does not
// increase fails whatever the speed bound, as does one whose speed is
// +Inf; a NaN stamp fails nothing. The score is pinned bit for bit to
// the per-segment speed array it used to be counted from.
func TestConsistencyBadTimestamps(t *testing.T) {
	zeroDt := &trajectory.Trajectory{Points: []trajectory.Point{
		{T: 0, Pos: geo.Pt(0, 0)},
		{T: 0, Pos: geo.Pt(5, 0)},
	}}
	for _, maxSpeed := range []float64{0, 10} {
		if got := consistencyScore(zeroDt, maxSpeed); got != 0 {
			t.Fatalf("zero-dt segment, maxSpeed %v: consistency %v, want 0", maxSpeed, got)
		}
	}
	// The reference: the old Trajectory.Speeds, then a count of the
	// finite in-bound entries.
	bySpeeds := func(pts []trajectory.Point, maxSpeed float64) float64 {
		ok := 0
		for i := 1; i < len(pts); i++ {
			s := math.Inf(1)
			if dt := pts[i].T - pts[i-1].T; !(dt <= 0) {
				s = pts[i-1].Pos.Dist(pts[i].Pos) / dt
			}
			if !math.IsInf(s, 1) && !(maxSpeed > 0 && s > maxSpeed) {
				ok++
			}
		}
		return float64(ok) / float64(len(pts)-1)
	}
	rng := rand.New(rand.NewSource(17))
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e308, -1e308, 5e-324}
	for trial := 0; trial < 500; trial++ {
		pts := make([]trajectory.Point, 2+rng.Intn(12))
		for i := range pts {
			pts[i] = trajectory.Point{T: float64(i) + rng.Float64()*2 - 0.5, Pos: geo.Pt(rng.Float64()*50, rng.Float64()*50)}
			if rng.Intn(4) == 0 {
				v := hostile[rng.Intn(len(hostile))]
				switch rng.Intn(3) {
				case 0:
					pts[i].T = v
				case 1:
					pts[i].Pos.X = v
				default:
					pts[i].Pos.Y = v
				}
			}
		}
		tr := &trajectory.Trajectory{Points: pts}
		for _, maxSpeed := range []float64{0, 20} {
			got, want := consistencyScore(tr, maxSpeed), bySpeeds(pts, maxSpeed)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, maxSpeed %v: consistency %v, per-segment speeds give %v (%v)", trial, maxSpeed, got, want, pts)
			}
		}
	}
}

func TestCompletenessAndSparsityAfterThinning(t *testing.T) {
	truth := cleanWalk(6)
	thin := truth.Thin(10)
	ctx := TrajectoryContext{ExpectedInterval: 1}
	base := AssessTrajectory(truth, ctx)
	deg := AssessTrajectory(thin, ctx)
	if deg[Completeness] >= base[Completeness] {
		t.Fatal("thinning did not reduce completeness")
	}
	if deg[Completeness] > 0.15 {
		t.Fatalf("completeness after 10x thin = %v", deg[Completeness])
	}
	if deg[TimeSparsity] <= base[TimeSparsity] {
		t.Fatal("thinning did not raise sparsity")
	}
}

func TestRedundancyCountsDuplicates(t *testing.T) {
	truth := cleanWalk(7)
	dup := simulate.DuplicateSamples(truth, 0.5, 8)
	a := AssessTrajectory(dup, TrajectoryContext{})
	if a[Redundancy] < 0.2 {
		t.Fatalf("redundancy = %v", a[Redundancy])
	}
}

// TestRedundancyIsWhatDeduplicationRemoves: the planner measures with
// Redundancy what DeduplicateStage removes with AppendDeduplicated, so the
// two must count the same rows — over random rows drawn from a small
// pool and over the float-equality edges (NaN fields, both zeros, both
// infinities, every row equal).
func TestRedundancyIsWhatDeduplicationRemoves(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pool := []float64{0, negZero, 1, 2, math.Inf(1), math.Inf(-1), nan}
	rng := rand.New(rand.NewSource(92))
	cases := [][]trajectory.Point{
		{{T: 1, Pos: geo.Pt(2, 3)}, {T: 1, Pos: geo.Pt(2, 3)}, {T: 1, Pos: geo.Pt(2, 3)}},
		{{T: nan, Pos: geo.Pt(0, 0)}, {T: nan, Pos: geo.Pt(0, 0)}, {T: 0, Pos: geo.Pt(nan, 0)}},
		{{T: 0, Pos: geo.Pt(negZero, 0)}, {T: negZero, Pos: geo.Pt(0, negZero)}},
		{{T: math.Inf(1), Pos: geo.Pt(math.Inf(-1), 0)}, {T: math.Inf(1), Pos: geo.Pt(math.Inf(-1), 0)}, {T: math.Inf(-1), Pos: geo.Pt(math.Inf(-1), 0)}},
	}
	for trial := 0; trial < 200; trial++ {
		pts := make([]trajectory.Point, 1+rng.Intn(60))
		for i := range pts {
			pts[i] = trajectory.Point{T: pool[rng.Intn(len(pool))], Pos: geo.Pt(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])}
		}
		cases = append(cases, pts)
	}
	for i, pts := range cases {
		n, kept := len(pts), len(trajectory.AppendDeduplicated(nil, pts))
		got := AssessTrajectory(&trajectory.Trajectory{ID: "t", Points: pts}, TrajectoryContext{})[Redundancy]
		if want := float64(n-kept) / float64(n); got != want {
			t.Fatalf("case %d: Redundancy %v over %d rows, deduplication removes %d", i, got, n, n-kept)
		}
	}
}

func TestSpaceCoverage(t *testing.T) {
	// A trajectory confined to one corner covers few cells.
	truth := simulate.RandomWalk("w", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}, 500, 2, 1, 9)
	ctx := TrajectoryContext{Region: region(), CellSize: 50}
	a := AssessTrajectory(truth, ctx)
	if a[SpaceCoverage] > 0.05 {
		t.Fatalf("corner coverage = %v", a[SpaceCoverage])
	}
	// A long diagonal covers more.
	diag := trajectory.New("d", []trajectory.Point{
		{T: 0, Pos: geo.Pt(0, 0)}, {T: 100, Pos: geo.Pt(1000, 1000)},
	})
	b := AssessTrajectory(diag, ctx)
	if b[SpaceCoverage] <= a[SpaceCoverage] {
		t.Fatal("diagonal should cover more cells")
	}
}

func TestAssessEmptyTrajectory(t *testing.T) {
	a := AssessTrajectory(&trajectory.Trajectory{}, TrajectoryContext{Truth: cleanWalk(10)})
	if a[DataVolume] != 0 {
		t.Fatal("empty volume")
	}
	if _, ok := a[Accuracy]; ok {
		t.Fatal("empty trajectory should not report accuracy")
	}
}

func TestLatencyAndInterpretability(t *testing.T) {
	truth := cleanWalk(11)
	delayed, delays := simulate.DelayReports(truth, 4, 12)
	a := AssessTrajectory(delayed, TrajectoryContext{Delays: delays, Annotated: 100})
	if a[Latency] < 3 || a[Latency] > 5 {
		t.Fatalf("latency = %v", a[Latency])
	}
	want := 100.0 / float64(truth.Len())
	if math.Abs(a[Interpretability]-want) > 1e-9 {
		t.Fatalf("interpretability = %v", a[Interpretability])
	}
}

func TestAssessReadings(t *testing.T) {
	f := simulate.NewField(simulate.FieldOptions{Seed: 13})
	_, readings := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: 25, Interval: 300, Duration: 6000, NoiseSigma: 2, Seed: 14,
	})
	ctx := ReadingsContext{Region: region(), Now: 6000}
	a := AssessReadings(readings, ctx)
	if a[PrecisionError] <= 0 {
		t.Fatal("precision error should be positive with noise")
	}
	if a[Consistency] < 0.9 {
		t.Fatalf("clean-ish consistency = %v", a[Consistency])
	}
	if a[TimeSparsity] != 300 {
		t.Fatalf("sparsity = %v", a[TimeSparsity])
	}
	// Outliers drop consistency.
	corrupted, _ := simulate.InjectValueOutliers(readings, 0.1, 200, 15)
	b := AssessReadings(corrupted, ctx)
	if b[Consistency] >= a[Consistency] {
		t.Fatalf("outliers did not reduce consistency: %v vs %v", b[Consistency], a[Consistency])
	}
}

func TestAssessReadingsEmpty(t *testing.T) {
	a := AssessReadings(nil, ReadingsContext{})
	if a[DataVolume] != 0 {
		t.Fatal("empty readings volume")
	}
}

func TestReadingDuplicates(t *testing.T) {
	r := stid.Reading{SensorID: "s", Pos: geo.Pt(1, 1), T: 5, Value: 2}
	a := AssessReadings([]stid.Reading{r, r, r}, ReadingsContext{})
	if a[Redundancy] < 0.6 {
		t.Fatalf("redundancy = %v", a[Redundancy])
	}
}

func TestAssessmentStringRendering(t *testing.T) {
	a := Assessment{Accuracy: 0.9, DataVolume: 100}
	s := a.String()
	if !strings.Contains(s, "accuracy") || !strings.Contains(s, "data_volume") {
		t.Fatalf("render: %q", s)
	}
}

func TestCharacteristicMatrixMatchesPaper(t *testing.T) {
	rows := CharacteristicMatrix(42)
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	structurals := 0
	for _, r := range rows {
		if r.Structural {
			structurals++
			if len(paperIssues(r.Char)) != 0 {
				t.Fatalf("%v should not be structural", r.Char)
			}
			continue
		}
		expect := paperIssues(r.Char)
		if len(expect) == 0 {
			t.Fatalf("%v missing paper issues", r.Char)
		}
		// Every paper-listed dimension we measured must have degraded.
		degraded := map[Dimension]bool{}
		for _, e := range r.Effects {
			if e.Degraded {
				degraded[e.Dim] = true
			}
		}
		for _, d := range expect {
			measured := false
			for _, e := range r.Effects {
				if e.Dim == d {
					measured = true
				}
			}
			if measured && !degraded[d] {
				t.Errorf("%v: paper expects %v to degrade, measurement disagrees", r.Char, d)
			}
		}
		if len(degraded) == 0 {
			t.Errorf("%v: no degradation measured at all", r.Char)
		}
	}
	if structurals != 4 {
		t.Fatalf("structural rows = %d, want 4", structurals)
	}
	table := RenderTable1(rows)
	if !strings.Contains(table, "Noisy and erroneous") || !strings.Contains(table, "| -") {
		t.Fatalf("table render:\n%s", table)
	}
}

func TestCharacteristicMatrixDeterministic(t *testing.T) {
	a := RenderTable1(CharacteristicMatrix(7))
	b := RenderTable1(CharacteristicMatrix(7))
	if a != b {
		t.Fatal("matrix not deterministic")
	}
}

func TestDiffRendering(t *testing.T) {
	before := Assessment{Accuracy: 0.5, PrecisionError: 10, DataVolume: 100}
	after := Assessment{Accuracy: 0.9, PrecisionError: 12, DataVolume: 100}
	d := Diff(before, after)
	if !strings.Contains(d, "+ accuracy") {
		t.Fatalf("accuracy improvement not marked:\n%s", d)
	}
	if !strings.Contains(d, "- precision_error") {
		t.Fatalf("precision regression not marked:\n%s", d)
	}
	if !strings.Contains(d, "= data_volume") {
		t.Fatalf("unchanged not marked:\n%s", d)
	}
}

// paperIssues maps each characteristic to the dimensions the paper's
// Table 1 lists as affected: the expectation the measured matrix is
// checked against.
func paperIssues(c Characteristic) []Dimension {
	switch c {
	case NoisyErroneous:
		return []Dimension{PrecisionError, Accuracy, Consistency}
	case TemporallyDiscrete:
		return []Dimension{TimeSparsity, Completeness, Staleness}
	case DecentralizedHeterogeneous:
		return []Dimension{Consistency, Latency, Interpretability}
	case Dynamic:
		return []Dimension{PrecisionError}
	case VoluminousDuplicated:
		return []Dimension{Redundancy, Latency, DataVolume}
	case IsolatedConflicting:
		return []Dimension{Consistency, Interpretability}
	case Unverifiable:
		return []Dimension{TruthVolume}
	case HierarchicalMultiScaled:
		return []Dimension{Consistency, Resolution, Interpretability}
	case SpatiallyDiscrete:
		return []Dimension{SpaceCoverage}
	default:
		return nil // structural rows
	}
}

// TestRoughnessSkipsNonFiniteSamples: a NaN or Inf position drops the
// three triples it is part of, a NaN or Inf stamp reads as if its
// sample were absent, and either leaves the estimate finite and close
// to the clean one; a trajectory with no finite triple reads 0.
func TestRoughnessSkipsNonFiniteSamples(t *testing.T) {
	noisy := simulate.AddGaussianNoise(cleanWalk(12), 10, 13)
	want := Roughness(noisy)
	without := noisy.Clone()
	without.Points = append(without.Points[:100], without.Points[101:]...)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		stamp := noisy.Clone()
		stamp.Points[100].T = bad
		if got, gone := Roughness(stamp), Roughness(without); got != gone {
			t.Fatalf("Roughness with one %v stamp = %v, without the sample %v", bad, got, gone)
		}
		for _, set := range []func(*trajectory.Point){
			func(p *trajectory.Point) { p.T = bad },
			func(p *trajectory.Point) { p.Pos.X = bad },
			func(p *trajectory.Point) { p.Pos.Y = bad },
		} {
			tr := noisy.Clone()
			set(&tr.Points[100])
			got := Roughness(tr)
			if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > 0.05*want {
				t.Fatalf("Roughness with one %v sample = %v, clean %v", bad, got, want)
			}
		}
	}
	tr := noisy.Clone()
	for i := range tr.Points {
		tr.Points[i].Pos.X = math.NaN()
	}
	if got := Roughness(tr); got != 0 {
		t.Fatalf("Roughness of an all-NaN trajectory = %v, want 0", got)
	}
}
