package refine

import (
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

func TestWkNNLocatesOnGrid(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}
	env := simulate.NewRadioEnv(bounds, 9, 2.5, 1.5, 1)
	raw := env.FingerprintMap(bounds, 10, 5, 2)
	fps := make([]Fingerprint, len(raw))
	for i, f := range raw {
		fps[i] = Fingerprint{Pos: f.Pos, RSSI: f.RSSI}
	}
	loc, err := NewWkNN(fps, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var errSum float64
	const trials = 50
	for i := 0; i < trials; i++ {
		truth := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		obs := env.Observe(truth, rng)
		est, err := loc.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		errSum += est.Dist(truth)
	}
	if mean := errSum / trials; mean > 12 {
		t.Fatalf("WkNN mean error = %v m (survey spacing 10 m)", mean)
	}
}

func TestWkNNErrors(t *testing.T) {
	if _, err := NewWkNN(nil, 3); err != ErrInsufficient {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	loc, _ := NewWkNN([]Fingerprint{{Pos: geo.Pt(0, 0), RSSI: []float64{-50}}}, 10)
	if _, err := loc.Locate([]float64{-50, -60}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	// k > len clamps.
	if est, err := loc.Locate([]float64{-55}); err != nil || est != geo.Pt(0, 0) {
		t.Fatalf("single fingerprint locate: %v %v", est, err)
	}
}

func TestMultilaterateExact(t *testing.T) {
	truth := geo.Pt(30, 40)
	anchors := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}}
	var obs []RangeObs
	for _, a := range anchors {
		obs = append(obs, RangeObs{Anchor: a, Range: a.Dist(truth)})
	}
	est, err := Multilaterate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if est.Dist(truth) > 1e-6 {
		t.Fatalf("exact multilateration off by %v", est.Dist(truth))
	}
}

func TestMultilaterateNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}
	env := simulate.NewRadioEnv(bounds, 6, 2.5, 0, 5)
	var errSum float64
	const trials = 50
	for i := 0; i < trials; i++ {
		truth := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ranges := env.ObserveRanges(truth, 2, rng)
		obs := make([]RangeObs, len(ranges))
		for j, r := range ranges {
			obs[j] = RangeObs{Anchor: r.Anchor, Range: r.Range}
		}
		est, err := Multilaterate(obs)
		if err != nil {
			t.Fatal(err)
		}
		errSum += est.Dist(truth)
	}
	if mean := errSum / trials; mean > 6 {
		t.Fatalf("noisy multilateration mean error = %v", mean)
	}
	if _, err := Multilaterate(nil); err != ErrInsufficient {
		t.Fatal("want ErrInsufficient")
	}
	// Collinear anchors are singular.
	col := []RangeObs{
		{Anchor: geo.Pt(0, 0), Range: 10},
		{Anchor: geo.Pt(10, 0), Range: 10},
		{Anchor: geo.Pt(20, 0), Range: 10},
	}
	if _, err := Multilaterate(col); err == nil {
		t.Fatal("collinear anchors should error")
	}
}

func TestFuseWeightsByVariance(t *testing.T) {
	a := Estimate{Pos: geo.Pt(0, 0), Var: 1}
	b := Estimate{Pos: geo.Pt(10, 0), Var: 9}
	fused, err := Fuse([]Estimate{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted mean: (0*1 + 10*(1/9))/(1+1/9) = 1.0.
	if math.Abs(fused.Pos.X-1) > 1e-9 {
		t.Fatalf("fused x = %v", fused.Pos.X)
	}
	if fused.Var >= a.Var {
		t.Fatal("fusion should shrink variance")
	}
	if _, err := Fuse(nil); err != ErrInsufficient {
		t.Fatal("want ErrInsufficient")
	}
	// Zero variance degenerates to near-total trust.
	f2, _ := Fuse([]Estimate{{Pos: geo.Pt(5, 5), Var: 0}, {Pos: geo.Pt(100, 100), Var: 10}})
	if f2.Pos.Dist(geo.Pt(5, 5)) > 0.01 {
		t.Fatalf("zero-variance estimate should dominate: %v", f2.Pos)
	}
}

func noisyLine(n int, sigma float64, seed int64) (truth, noisy *trajectory.Trajectory) {
	pts := make([]trajectory.Point, n)
	for i := range pts {
		pts[i] = trajectory.Point{T: float64(i), Pos: geo.Pt(float64(i)*3, float64(i)*1.5)}
	}
	truth = trajectory.New("t", pts)
	noisy = simulate.AddGaussianNoise(truth, sigma, seed)
	return truth, noisy
}

func TestKalmanFilterReducesError(t *testing.T) {
	truth, noisy := noisyLine(300, 8, 5)
	filtered := KalmanFilterTrajectory(noisy, 0.5, 8)
	rawErr := trajectory.RMSEAgainst(noisy, truth)
	filtErr := trajectory.RMSEAgainst(filtered, truth)
	if filtErr >= rawErr*0.8 {
		t.Fatalf("kalman filter: raw %v -> filtered %v", rawErr, filtErr)
	}
}

func TestKalmanSmootherBeatsFilter(t *testing.T) {
	truth, noisy := noisyLine(300, 8, 6)
	filtered := KalmanFilterTrajectory(noisy, 0.5, 8)
	smoothed := KalmanSmoothTrajectory(noisy, 0.5, 8)
	filtErr := trajectory.RMSEAgainst(filtered, truth)
	smoothErr := trajectory.RMSEAgainst(smoothed, truth)
	if smoothErr >= filtErr {
		t.Fatalf("RTS should beat causal filter: filter %v smoother %v", filtErr, smoothErr)
	}
}

func TestKalmanVelocityEstimate(t *testing.T) {
	truth, noisy := noisyLine(200, 2, 7)
	_ = truth
	// A small process noise keeps the steady-state velocity estimate
	// tight enough to verify against the true (3, 1.5) m/s.
	k := NewKalman(noisy.Points[0].Pos, 0.05, 2)
	for i := 1; i < noisy.Len(); i++ {
		k.Step(1, noisy.Points[i].Pos)
	}
	v := geo.Pt(k.x.vx, k.x.vy)
	if math.Abs(v.X-3) > 0.5 || math.Abs(v.Y-1.5) > 0.5 {
		t.Fatalf("velocity = %v, want (3, 1.5)", v)
	}
}

func TestKalmanInnovationDetectsJumps(t *testing.T) {
	_, noisy := noisyLine(100, 2, 8)
	k := NewKalman(noisy.Points[0].Pos, 0.5, 2)
	for i := 1; i < 50; i++ {
		k.Step(1, noisy.Points[i].Pos)
	}
	normal := k.Innovation(1, noisy.Points[50].Pos)
	jump := k.Innovation(1, noisy.Points[50].Pos.Add(geo.Pt(100, 0)))
	if jump < normal+50 {
		t.Fatalf("innovation: normal %v jump %v", normal, jump)
	}
}

func TestKalmanEmptyAndDegenerate(t *testing.T) {
	if got := KalmanFilterTrajectory(&trajectory.Trajectory{}, 1, 1); got.Len() != 0 {
		t.Fatal("empty filter")
	}
	if got := KalmanSmoothTrajectory(&trajectory.Trajectory{}, 1, 1); got.Len() != 0 {
		t.Fatal("empty smoother")
	}
	one := trajectory.New("x", []trajectory.Point{{T: 0, Pos: geo.Pt(1, 2)}})
	if got := KalmanSmoothTrajectory(one, 1, 1); got.Len() != 1 {
		t.Fatal("single-point smoother")
	}
}

func TestParticleFilterReducesError(t *testing.T) {
	truth, noisy := noisyLine(300, 8, 9)
	filtered := ParticleFilterTrajectory(noisy, 500, 1, 8, 10)
	rawErr := trajectory.RMSEAgainst(noisy, truth)
	filtErr := trajectory.RMSEAgainst(filtered, truth)
	if filtErr >= rawErr {
		t.Fatalf("particle filter: raw %v -> filtered %v", rawErr, filtErr)
	}
}

func TestParticleFilterRecoversFromDivergence(t *testing.T) {
	pf := newParticleFilter(nil, 100, geo.Pt(0, 0), 1, 1, 2, 11)
	// Observation very far from every particle forces reinitialization.
	est := pf.Step(1, geo.Pt(1e6, 1e6))
	if est.Dist(geo.Pt(1e6, 1e6)) > 1e5 {
		t.Fatalf("did not recover: %v", est)
	}
}

func TestHMMGridReducesError(t *testing.T) {
	truth, noisy := noisyLine(150, 8, 12)
	region := geo.Rect{Min: geo.Pt(-50, -50), Max: geo.Pt(500, 300)}
	filtered := HMMGridTrajectory(noisy, region, 10, 4, 8)
	rawErr := trajectory.RMSEAgainst(noisy, truth)
	filtErr := trajectory.RMSEAgainst(filtered, truth)
	if filtErr >= rawErr {
		t.Fatalf("hmm grid: raw %v -> filtered %v", rawErr, filtErr)
	}
}

func TestJointDenoiseRemovesCommonMode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const nObj, nT = 8, 60
	truth := make([][]geo.Point, nT)
	obs := make([][]geo.Point, nT)
	biases := make([]geo.Point, nT)
	starts := make([]geo.Point, nObj)
	vels := make([]geo.Point, nObj)
	for i := range starts {
		starts[i] = geo.Pt(rng.Float64()*500, rng.Float64()*500)
		vels[i] = geo.Pt(rng.NormFloat64(), rng.NormFloat64())
	}
	for t := 0; t < nT; t++ {
		biases[t] = geo.Pt(rng.NormFloat64()*15, rng.NormFloat64()*15)
		truth[t] = make([]geo.Point, nObj)
		obs[t] = make([]geo.Point, nObj)
		for i := 0; i < nObj; i++ {
			truth[t][i] = starts[i].Add(vels[i].Scale(float64(t)))
			obs[t][i] = truth[t][i].Add(biases[t]).Add(geo.Pt(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	corrected, estBias := JointDenoise(obs, 8)
	var rawErr, corErr float64
	for t := 0; t < nT; t++ {
		for i := 0; i < nObj; i++ {
			rawErr += obs[t][i].Dist(truth[t][i])
			corErr += corrected[t][i].Dist(truth[t][i])
		}
	}
	if corErr >= rawErr*0.6 {
		t.Fatalf("joint denoise: raw %v -> corrected %v", rawErr, corErr)
	}
	if len(estBias) != nT {
		t.Fatal("bias length")
	}
	if got, _ := JointDenoise(nil, 3); got != nil {
		t.Fatal("empty input")
	}
}

func TestIterativeOptimizeShrinksRandomError(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 15
	truth := make([]geo.Point, n)
	noisy := make([]geo.Point, n)
	for i := range truth {
		truth[i] = geo.Pt(rng.Float64()*200, rng.Float64()*200)
		noisy[i] = truth[i].Add(geo.Pt(rng.NormFloat64()*8, rng.NormFloat64()*8))
	}
	var ranges []PairRange
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ranges = append(ranges, PairRange{I: i, J: j, Dist: truth[i].Dist(truth[j])})
		}
	}
	refined := IterativeOptimize(noisy, ranges, 300, 0.01)
	var rawErr, refErr float64
	for i := range truth {
		rawErr += noisy[i].Dist(truth[i])
		refErr += refined[i].Dist(truth[i])
	}
	if refErr >= rawErr*0.7 {
		t.Fatalf("iterative optimize: raw %v -> refined %v", rawErr, refErr)
	}
	// Degenerate inputs are safe.
	if got := IterativeOptimize(nil, ranges, 10, 0.1); len(got) != 0 {
		t.Fatal("empty positions")
	}
	if got := IterativeOptimize(noisy, nil, 10, 0.1); len(got) != n {
		t.Fatal("no ranges should return input")
	}
	bad := []PairRange{{I: -1, J: 99, Dist: 5}, {I: 2, J: 2, Dist: 0}}
	IterativeOptimize(noisy, bad, 10, 0.1) // must not panic
}
