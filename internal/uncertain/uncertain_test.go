package uncertain

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

func TestCalibrateToAnchors(t *testing.T) {
	tr := trajectory.New("a", []trajectory.Point{
		{T: 0, Pos: geo.Pt(3, 0)},
		{T: 1, Pos: geo.Pt(50, 50)},
	})
	anchors := []geo.Point{{X: 0, Y: 0}}
	out := CalibrateToAnchors(tr, anchors, 10, 0.5)
	if out.Points[0].Pos.Dist(geo.Pt(1.5, 0)) > 1e-9 {
		t.Fatalf("calibrated = %v", out.Points[0].Pos)
	}
	// Far point untouched.
	if out.Points[1].Pos != geo.Pt(50, 50) {
		t.Fatal("far point moved")
	}
	// alpha=0 and no anchors are identity.
	if got := CalibrateToAnchors(tr, anchors, 10, 0); got.Points[0].Pos != tr.Points[0].Pos {
		t.Fatal("alpha=0 should not move points")
	}
	if got := CalibrateToAnchors(tr, nil, 10, 1); got.Points[0].Pos != tr.Points[0].Pos {
		t.Fatal("no anchors should not move points")
	}
	// alpha > 1 clamps to the anchor.
	if got := CalibrateToAnchors(tr, anchors, 10, 5); got.Points[0].Pos != geo.Pt(0, 0) {
		t.Fatalf("alpha clamp: %v", got.Points[0].Pos)
	}
}

func TestCalibrationReducesNoiseNearAnchors(t *testing.T) {
	// Truth moves along a corridor of anchors every 10 m.
	var pts []trajectory.Point
	var anchors []geo.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, trajectory.Point{T: float64(i), Pos: geo.Pt(float64(i)*10, 0)})
		anchors = append(anchors, geo.Pt(float64(i)*10, 0))
	}
	truth := trajectory.New("t", pts)
	noisy := simulate.AddGaussianNoise(truth, 4, 1)
	cal := CalibrateToAnchors(noisy, anchors, 15, 0.8)
	if trajectory.RMSEAgainst(cal, truth) >= trajectory.RMSEAgainst(noisy, truth) {
		t.Fatal("calibration did not reduce error")
	}
}

func TestMovingAverageAndExponentialSmoothing(t *testing.T) {
	pts := make([]trajectory.Point, 200)
	for i := range pts {
		pts[i] = trajectory.Point{T: float64(i), Pos: geo.Pt(float64(i)*2, 0)}
	}
	truth := trajectory.New("t", pts)
	noisy := simulate.AddGaussianNoise(truth, 6, 2)
	rawErr := trajectory.RMSEAgainst(noisy, truth)
	ma := MovingAverage(noisy, 3)
	if trajectory.RMSEAgainst(ma, truth) >= rawErr {
		t.Fatal("moving average did not reduce error")
	}
	es := ExponentialSmooth(noisy, 0.3)
	if trajectory.RMSEAgainst(es, truth) >= rawErr {
		t.Fatal("exponential smoothing did not reduce error")
	}
	// Degenerate inputs.
	if got := MovingAverage(noisy, 0); got.Points[5] != noisy.Points[5] {
		t.Fatal("halfWidth 0 should be identity")
	}
	if got := ExponentialSmooth(&trajectory.Trajectory{}, 0.5); got.Len() != 0 {
		t.Fatal("empty exponential smooth")
	}
	if got := ExponentialSmooth(noisy, 9); got.Len() != noisy.Len() {
		t.Fatal("bad alpha should default")
	}
}

func matchSetup(t *testing.T) (*roadnet.Graph, *roadnet.Snapper, []simulate.Trip) {
	t.Helper()
	g := roadnet.GridCity(roadnet.GridCityOptions{
		NX: 10, NY: 10, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 3,
	})
	return g, roadnet.NewSnapper(g, 100), simulate.TripsWithRoutes(g, simulate.TripOptions{
		NumObjects: 6, MinHops: 8, Speed: 12, SampleInterval: 2, Seed: 4,
	})
}

func TestMapMatchRecoversRoutes(t *testing.T) {
	g, snapper, trips := matchSetup(t)
	var accSum float64
	for _, trip := range trips {
		noisy := simulate.AddGaussianNoise(trip.Truth.Thin(5), 10, 5)
		res, err := MapMatch(g, snapper, noisy, MatchOptions{EmissionSigma: 12})
		if err != nil {
			t.Fatal(err)
		}
		acc := RouteAccuracy(res.Route, trip.Path.Edges)
		accSum += acc
		if res.Recovered.Len() < noisy.Len() {
			t.Fatal("recovery should densify the trajectory")
		}
		// Recovered points lie on the network.
		for _, p := range res.Recovered.Points {
			if snaps := snapper.KNearest(p.Pos, 1); len(snaps) == 0 || snaps[0].Dist > 1 {
				t.Fatalf("recovered point off network: %v", snaps)
			}
		}
	}
	if mean := accSum / float64(len(trips)); mean < 0.5 {
		t.Fatalf("mean route accuracy = %v", mean)
	}
}

func TestMapMatchImprovesGeometry(t *testing.T) {
	g, snapper, trips := matchSetup(t)
	trip := trips[0]
	noisy := simulate.AddGaussianNoise(trip.Truth.Thin(5), 10, 6)
	res, err := MapMatch(g, snapper, noisy, MatchOptions{EmissionSigma: 12})
	if err != nil {
		t.Fatal(err)
	}
	rawErr := trajectory.MeanErrorAgainst(noisy, trip.Truth)
	recErr := trajectory.MeanErrorAgainst(res.Recovered, trip.Truth)
	if recErr >= rawErr {
		t.Fatalf("map matching: raw %v -> recovered %v", rawErr, recErr)
	}
}

func TestMapMatchEmpty(t *testing.T) {
	g, snapper, _ := matchSetup(t)
	_, err := MapMatch(g, snapper, &trajectory.Trajectory{}, MatchOptions{})
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("want ErrNoCandidates, got %v", err)
	}
}

func TestRouteAccuracy(t *testing.T) {
	a := []roadnet.EdgeID{1, 2, 3}
	if RouteAccuracy(a, a) != 1 {
		t.Fatal("self accuracy")
	}
	if RouteAccuracy(a, []roadnet.EdgeID{4, 5}) != 0 {
		t.Fatal("disjoint accuracy")
	}
	if got := RouteAccuracy(a, []roadnet.EdgeID{2, 3, 4}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("partial accuracy = %v", got)
	}
	if RouteAccuracy(nil, nil) != 1 {
		t.Fatal("empty accuracy")
	}
}

func fieldReadings(t *testing.T, density int, seed int64) (*simulate.Field, []stid.Reading) {
	t.Helper()
	f := simulate.NewField(simulate.FieldOptions{Seed: seed})
	_, readings := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: density, Interval: 600, Duration: 3600, NoiseSigma: 1, Seed: seed + 1,
	})
	return f, readings
}

// interpolator is what IDW, GaussianKernel and TrendResidual share.
type interpolator interface {
	Estimate(pos geo.Point, t float64) (value float64, ok bool)
}

func interpolationMAE(t *testing.T, f *simulate.Field, ip interpolator, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	const trials = 100
	for i := 0; i < trials; i++ {
		pos := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		tm := rng.Float64() * 3600
		est, ok := ip.Estimate(pos, tm)
		if !ok {
			t.Fatal("estimate failed")
		}
		sum += math.Abs(est - f.Value(pos, tm))
	}
	return sum / trials
}

func TestIDWInterpolation(t *testing.T) {
	f, readings := fieldReadings(t, 60, 10)
	mae := interpolationMAE(t, f, IDW{Readings: readings, TimeWindow: 900}, 11)
	// Field range is ~±30 around 50; dense IDW should be much closer.
	if mae > 6 {
		t.Fatalf("IDW MAE = %v", mae)
	}
	// No readings in window -> not ok.
	if _, ok := (IDW{Readings: readings, TimeWindow: 1}).Estimate(geo.Pt(0, 0), 1e9); ok {
		t.Fatal("empty window should fail")
	}
	// Exact sample point returns ~the sample value.
	r := readings[0]
	est, _ := IDW{Readings: readings}.Estimate(r.Pos, r.T)
	if math.Abs(est-r.Value) > 1 {
		t.Fatalf("at-sample estimate %v vs %v", est, r.Value)
	}
}

func TestGaussianKernelInterpolation(t *testing.T) {
	f, readings := fieldReadings(t, 60, 12)
	mae := interpolationMAE(t, f, GaussianKernel{Readings: readings, SpaceSigma: 120, TimeSigma: 900}, 13)
	if mae > 8 {
		t.Fatalf("kernel MAE = %v", mae)
	}
	if _, ok := (GaussianKernel{SpaceSigma: 10}).Estimate(geo.Pt(0, 0), 0); ok {
		t.Fatal("no readings should fail")
	}
}

func TestTrendResidualBeatsIDWOnGradient(t *testing.T) {
	// A strongly tilted field: value = 0.2*x + noise-free.
	rng := rand.New(rand.NewSource(14))
	var readings []stid.Reading
	for i := 0; i < 40; i++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		readings = append(readings, stid.Reading{
			SensorID: "s", Pos: p, T: 0, Value: 0.2*p.X + 0.05*p.Y,
		})
	}
	tr := NewTrendResidual(readings, 2, 0)
	idw := IDW{Readings: readings}
	var trErr, idwErr float64
	for i := 0; i < 50; i++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		truth := 0.2*p.X + 0.05*p.Y
		if v, ok := tr.Estimate(p, 0); ok {
			trErr += math.Abs(v - truth)
		}
		if v, ok := idw.Estimate(p, 0); ok {
			idwErr += math.Abs(v - truth)
		}
	}
	if trErr >= idwErr {
		t.Fatalf("trend+residual (%v) should beat IDW (%v) on a planar field", trErr, idwErr)
	}
	// Tiny input degrades gracefully to IDW.
	small := NewTrendResidual(readings[:2], 2, 0)
	if _, ok := small.Estimate(geo.Pt(1, 1), 0); !ok {
		t.Fatal("small trend estimate failed")
	}
}

func TestFuseSourcesCorrectsBias(t *testing.T) {
	f := simulate.NewField(simulate.FieldOptions{Seed: 15})
	_, clean := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: 40, Interval: 600, Duration: 3600, NoiseSigma: 0.5, Seed: 16,
	})
	// Source B: same grid, constant +20 bias and more noise.
	_, noisy := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: 40, Interval: 600, Duration: 3600, NoiseSigma: 4, Seed: 17,
	})
	biased := make([]stid.Reading, len(noisy))
	copy(biased, noisy)
	for i := range biased {
		biased[i].Value += 20
	}
	res := FuseSources([]SourceReadings{
		{Source: "A", Readings: clean},
		{Source: "B", Readings: biased},
	}, 150)
	if len(res.Fused) != len(clean) {
		t.Fatalf("fused count = %d", len(res.Fused))
	}
	// The bias estimate for B should be near +20 relative to A's.
	if rel := res.Biases["B"] - res.Biases["A"]; rel < 10 || rel > 30 {
		t.Fatalf("relative bias estimate = %v, want ~20", rel)
	}
	// A is cleaner, so it should carry more weight.
	if res.Weights["A"] <= res.Weights["B"] {
		t.Fatalf("weights: A %v should exceed B %v", res.Weights["A"], res.Weights["B"])
	}
	// Fused error vs truth should beat the biased source alone.
	var fusedErr, biasedErr float64
	for i, r := range res.Fused {
		fusedErr += math.Abs(r.Value - f.Value(r.Pos, r.T))
		biasedErr += math.Abs(biased[i].Value - f.Value(biased[i].Pos, biased[i].T))
	}
	if fusedErr >= biasedErr {
		t.Fatalf("fusion (%v) should beat biased source (%v)", fusedErr, biasedErr)
	}
	// Degenerate input.
	empty := FuseSources(nil, 100)
	if len(empty.Fused) != 0 {
		t.Fatal("empty fusion")
	}
}
