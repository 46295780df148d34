package refine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/trajectory"
)

// diffCase is one input of the differential corpus.
type diffCase struct {
	tr   *trajectory.Trajectory
	q, r float64
}

// diffCorpus generates n seeded trajectories that between them cover
// what moves a rounding: lengths 1-200, duplicate and backward
// timestamps (dt clamps to 1e-9), gaps of 1e-6 s and 1e4 s, coordinates
// from 1e-3 to 1e7, exact 0 and -0 coordinates, spikes and runs of
// spikes, and q/r ranges wide enough to reach both singular exits.
func diffCorpus(n int, seed int64) []diffCase {
	rng := rand.New(rand.NewSource(seed))
	qs := []float64{1e-6, 1e-3, 0.5, 1, 30, 1e3, 1e6}
	rs := []float64{1e-7, 1e-4, 0.05, 1, 8, 1e3}
	negZero := math.Copysign(0, -1)
	cases := make([]diffCase, 0, n)
	for c := 0; c < n; c++ {
		length := 1 + rng.Intn(200)
		scale := math.Pow(10, -3+10*rng.Float64())
		// A third of the corpus sits on one clock tick with tiny noise
		// terms: the covariance collapses below 1e-12 there.
		frozen := c%3 == 0
		pts := make([]trajectory.Point, length)
		var tm float64
		x, y := rng.NormFloat64()*scale, rng.NormFloat64()*scale
		spike := 0
		for i := range pts {
			if i > 0 {
				switch k := rng.Intn(12); {
				case frozen || k == 0: // duplicate timestamp
				case k == 1:
					tm += 1e-6
				case k == 2:
					tm += 1e4
				case k == 3:
					tm -= rng.Float64() // out of order
				default:
					tm += 0.1 + 5*rng.Float64()
				}
			}
			x += rng.NormFloat64() * scale * 0.1
			y += rng.NormFloat64() * scale * 0.1
			px, py := x, y
			if spike == 0 && rng.Intn(25) == 0 {
				spike = 1 + rng.Intn(5)
			}
			if spike > 0 {
				spike--
				px += 1e3 * scale
				py -= 1e3 * scale
			}
			switch rng.Intn(40) {
			case 0:
				px = 0
			case 1:
				py = negZero
			case 2:
				px, py = negZero, 0
			}
			pts[i] = trajectory.Point{T: tm, Pos: geo.Pt(px, py)}
		}
		q, r := qs[rng.Intn(len(qs))], rs[rng.Intn(len(rs))]
		if frozen {
			q, r = qs[rng.Intn(2)], rs[rng.Intn(2)]
		}
		cases = append(cases, diffCase{&trajectory.Trajectory{ID: "d", Points: pts}, q, r})
	}
	return cases
}

func samePosBits(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

func sameTrajectoryBits(t *testing.T, what string, got, want *trajectory.Trajectory) {
	t.Helper()
	if got.ID != want.ID || got.Len() != want.Len() {
		t.Fatalf("%s: id/len %q/%d, want %q/%d", what, got.ID, got.Len(), want.ID, want.Len())
	}
	for i := range want.Points {
		g, w := got.Points[i], want.Points[i]
		if math.Float64bits(g.T) != math.Float64bits(w.T) || !samePosBits(g.Pos, w.Pos) {
			t.Fatalf("%s: point %d = %v (%x,%x), dense form %v (%x,%x)", what, i,
				g, math.Float64bits(g.Pos.X), math.Float64bits(g.Pos.Y),
				w, math.Float64bits(w.Pos.X), math.Float64bits(w.Pos.Y))
		}
	}
}

// sameStateBits holds the whole filter state — means and both axis
// blocks of the dense covariance — to the per-axis one, signs of zero
// included.
func sameStateBits(t *testing.T, what string, k *Kalman, d *denseKalman) {
	t.Helper()
	eq := func(name string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %v (%x), dense form %v (%x)", what, name,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	eq("x", k.x.sx, d.x.Data[0])
	eq("y", k.x.sy, d.x.Data[1])
	eq("vx", k.x.vx, d.x.Data[2])
	eq("vy", k.x.vy, d.x.Data[3])
	for axis := 0; axis < 2; axis++ {
		eq("p[pos,pos]", k.p.a, d.p.At(axis, axis))
		eq("p[pos,vel]", k.p.b, d.p.At(axis, axis+2))
		eq("p[vel,pos]", k.p.c, d.p.At(axis+2, axis))
		eq("p[vel,vel]", k.p.d, d.p.At(axis+2, axis+2))
	}
}

// predictionBranches counts the paths outlier.Prediction's loop takes,
// so the corpus can be held to reaching all of them.
type predictionBranches struct{ flagged, rebuilt, stepped int }

// comparePredictionSequence drives both filters through the
// Innovation/Predict/Step/rebuild interleaving of outlier.Prediction
// and compares every value that loop reads, and the full state after
// every call.
func comparePredictionSequence(t *testing.T, what string, c diffCase, br *predictionBranches) {
	t.Helper()
	pts := c.tr.Points
	k := NewKalman(pts[0].Pos, c.q, c.r)
	d := newDenseKalman(pts[0].Pos, c.q, c.r)
	k.Update(pts[0].Pos)
	d.Update(pts[0].Pos)
	sameStateBits(t, what+" first update", k, d)
	prevT := pts[0].T
	consecutive := 0
	for i := 1; i < len(pts); i++ {
		dt := math.Max(pts[i].T-prevT, 1e-9)
		innov, want := k.Innovation(dt, pts[i].Pos), d.Innovation(dt, pts[i].Pos)
		if math.Float64bits(innov) != math.Float64bits(want) {
			t.Fatalf("%s: innovation %d = %v, dense form %v", what, i, innov, want)
		}
		gate := 5 * c.r * math.Max(1, math.Sqrt(dt))
		switch {
		case i > 3 && innov > gate && consecutive < 3:
			br.flagged++
			consecutive++
			k.Predict(dt)
			d.Predict(dt)
		case consecutive >= 3:
			br.rebuilt++
			consecutive = 0
			k = NewKalman(pts[i].Pos, c.q, c.r)
			d = newDenseKalman(pts[i].Pos, c.q, c.r)
			k.Update(pts[i].Pos)
			d.Update(pts[i].Pos)
		default:
			br.stepped++
			consecutive = 0
			if got, want := k.Step(dt, pts[i].Pos), d.Step(dt, pts[i].Pos); !samePosBits(got, want) {
				t.Fatalf("%s: step %d = %v, dense form %v", what, i, got, want)
			}
		}
		sameStateBits(t, what, k, d)
		if !samePosBits(k.Position(), d.Position()) {
			t.Fatalf("%s: position %d = %v, dense form %v", what, i, k.Position(), d.Position())
		}
		prevT = pts[i].T
	}
}

// compareFreeSequence calls the filter the ways no trajectory helper
// does — Predict before any Update, dt of zero and below, Innovation
// into the past — in a seeded random order.
func compareFreeSequence(t *testing.T, what string, c diffCase, rng *rand.Rand) {
	t.Helper()
	pts := c.tr.Points
	k := NewKalman(pts[0].Pos, c.q, c.r)
	d := newDenseKalman(pts[0].Pos, c.q, c.r)
	dts := []float64{-1, 0, 1e-9, 1e-6, 0.7, 1, 1e4}
	for step := 0; step < 2*len(pts); step++ {
		p, dt := pts[rng.Intn(len(pts))].Pos, dts[rng.Intn(len(dts))]
		switch rng.Intn(4) {
		case 0:
			k.Predict(dt)
			d.Predict(dt)
		case 1:
			k.Update(p)
			d.Update(p)
		case 2:
			k.Step(dt, p)
			d.Step(dt, p)
		case 3:
			if got, want := k.Innovation(dt, p), d.Innovation(dt, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: innovation at step %d = %v, dense form %v", what, step, got, want)
			}
		}
		sameStateBits(t, what, k, d)
	}
}

// singularExits replays the smoother's forward pass and reports how
// often each of its two < 1e-12 exits fires on c: the innovation
// covariance in Update and the predicted covariance in the RTS pass.
func singularExits(c diffCase) (update, rts int) {
	pts := c.tr.Points
	k := NewKalman(pts[0].Pos, c.q, c.r)
	var pFilt block2
	for i, p := range pts {
		if i > 0 {
			dt := math.Max(p.T-pts[i-1].T, 1e-9)
			k.Predict(dt)
			if _, ok := rtsGain(pFilt, k.p, dt); !ok {
				rts++
			}
		}
		if math.Abs(k.p.a+k.r*k.r) < 1e-12 {
			update++
		}
		k.Update(p.Pos)
		pFilt = k.p
	}
	return update, rts
}

// TestKalmanMatchesDenseReference is the bit-identity contract: on
// every finite run the per-axis kernels return the Float64bits of the
// 4x4 matrix form they replaced.
func TestKalmanMatchesDenseReference(t *testing.T) {
	cases := diffCorpus(3200, 28)
	rng := rand.New(rand.NewSource(29))
	var br predictionBranches
	var updateExits, rtsExits, negZeros, clamped int
	for i, c := range cases {
		what := fmt.Sprintf("case %d", i)
		sameTrajectoryBits(t, what+" smoother",
			KalmanSmoothTrajectory(c.tr, c.q, c.r), denseSmoothTrajectory(c.tr, c.q, c.r))
		sameTrajectoryBits(t, what+" filter",
			KalmanFilterTrajectory(c.tr, c.q, c.r), denseFilterTrajectory(c.tr, c.q, c.r))
		comparePredictionSequence(t, what+" prediction sequence", c, &br)
		compareFreeSequence(t, what+" free sequence", c, rng)
		u, r := singularExits(c)
		updateExits += u
		rtsExits += r
		for j, p := range c.tr.Points {
			if (p.Pos.X == 0 && math.Signbit(p.Pos.X)) || (p.Pos.Y == 0 && math.Signbit(p.Pos.Y)) {
				negZeros++
			}
			if j > 0 && p.T <= c.tr.Points[j-1].T {
				clamped++
			}
		}
	}
	// The corpus must actually reach what it is there to cover.
	if updateExits == 0 || rtsExits == 0 {
		t.Errorf("singular exits reached: update %d, rts %d; want both", updateExits, rtsExits)
	}
	if br.flagged == 0 || br.rebuilt == 0 || br.stepped == 0 {
		t.Errorf("prediction branches reached: %+v; want all three", br)
	}
	if negZeros == 0 || clamped == 0 {
		t.Errorf("corpus has %d -0 coordinates and %d clamped dts; want both", negZeros, clamped)
	}
}

// TestKalmanSmoothAllocs holds a warm smoother call to its output: the
// Trajectory and its Points, nothing per step.
func TestKalmanSmoothAllocs(t *testing.T) {
	_, noisy := noisyLine(1000, 8, 3)
	KalmanSmoothTrajectory(noisy, 1, 8) // size the pooled step slice
	if got := testing.AllocsPerRun(20, func() { KalmanSmoothTrajectory(noisy, 1, 8) }); got > 2 && !israce.Enabled {
		t.Fatalf("KalmanSmoothTrajectory allocates %v times a call, want 2 (the output)", got)
	}
	k := NewKalman(noisy.Points[0].Pos, 1, 8)
	if got := testing.AllocsPerRun(20, func() {
		k.Innovation(1, noisy.Points[1].Pos)
		k.Step(1, noisy.Points[1].Pos)
	}); got != 0 {
		t.Fatalf("Innovation+Step allocate %v times, want 0", got)
	}
}

// TestKalmanHostileValues is the other half of the contract: outside
// the finite range the output has the input's length and nothing
// panics.
func TestKalmanHostileValues(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	hostile := []trajectory.Point{
		{T: 0, Pos: geo.Pt(1, 2)},
		{T: 1, Pos: geo.Pt(inf, 2)},
		{T: 2, Pos: geo.Pt(3, -inf)},
		{T: nan, Pos: geo.Pt(4, 5)},
		{T: 4, Pos: geo.Pt(1e308, -1e308)},
		{T: inf, Pos: geo.Pt(-1e308, 1e308)},
		{T: 5, Pos: geo.Pt(nan, nan)},
		{T: -inf, Pos: geo.Pt(6, 7)},
		{T: 1e308, Pos: geo.Pt(8, 9)},
	}
	for n := 1; n <= len(hostile); n++ {
		for _, qr := range [][2]float64{{1, 8}, {1e308, 1e-308}, {inf, nan}} {
			tr := &trajectory.Trajectory{ID: "h", Points: hostile[len(hostile)-n:]}
			if got := KalmanSmoothTrajectory(tr, qr[0], qr[1]); got.Len() != n {
				t.Fatalf("smoother: %d points from %d", got.Len(), n)
			}
			if got := KalmanFilterTrajectory(tr, qr[0], qr[1]); got.Len() != n {
				t.Fatalf("filter: %d points from %d", got.Len(), n)
			}
		}
	}
}

// TestKalmanNonFiniteRowIsMissingMeasurement: a row with a NaN or
// infinite coordinate costs that row its measurement and nothing else.
// Skipping an update is, for this model, the same as never having had
// the row (predicting dt1 then dt2 composes to predicting dt1+dt2), so
// every other output must sit within rounding — 1e-6 m — of the run
// over the trajectory without it.
func TestKalmanNonFiniteRowIsMissingMeasurement(t *testing.T) {
	for _, bad := range []struct {
		name string
		at   int
		pos  geo.Point
	}{
		{"nan-x-mid", 50, geo.Pt(math.NaN(), 75)},
		{"inf-y-mid", 50, geo.Pt(150, math.Inf(-1))},
		{"nan-last", 99, geo.Pt(math.NaN(), math.NaN())},
		{"nan-first", 0, geo.Pt(math.NaN(), 0)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			_, noisy := noisyLine(100, 2, 12)
			without := &trajectory.Trajectory{ID: noisy.ID}
			without.Points = append(without.Points, noisy.Points[:bad.at]...)
			without.Points = append(without.Points, noisy.Points[bad.at+1:]...)
			noisy.Points[bad.at].Pos = bad.pos
			for name, run := range map[string]func(*trajectory.Trajectory, float64, float64) *trajectory.Trajectory{
				"smoother": KalmanSmoothTrajectory, "filter": KalmanFilterTrajectory,
			} {
				got, want := run(noisy, 1, 2), run(without, 1, 2)
				if got.Len() != 100 {
					t.Fatalf("%s: %d points, want 100", name, got.Len())
				}
				for i, p := range got.Points {
					if !finitePos(p.Pos) {
						t.Fatalf("%s: point %d = %v after one bad row at %d", name, i, p.Pos, bad.at)
					}
					if i == bad.at {
						continue
					}
					j := i
					if i > bad.at {
						j--
					}
					// A bad first row starts the filter at the second
					// row's position, where the run without it starts
					// too — but one tick earlier, so the prior has had
					// dt to widen: a slightly different estimate
					// (0.1 m here), not rounding.
					tol := 1e-6
					if bad.at == 0 {
						tol = 0.5
					}
					if d := p.Pos.Dist(want.Points[j].Pos); d > tol {
						t.Fatalf("%s: point %d is %v m from the run without row %d", name, i, d, bad.at)
					}
				}
			}
		})
	}
}

// kalmanFuzzInput decodes fuzz bytes: q and r, then (t,x,y) triples,
// each a little-endian float64. At most 64 points are taken.
func kalmanFuzzInput(data []byte) (c diffCase, ok bool) {
	if len(data) < 16+24 {
		return c, false
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
	c.q, c.r = f(0), f(1)
	n := min((len(data)-16)/24, 64)
	pts := make([]trajectory.Point, n)
	for i := range pts {
		pts[i] = trajectory.Point{T: f(2 + 3*i), Pos: geo.Pt(f(3+3*i), f(4+3*i))}
	}
	c.tr = &trajectory.Trajectory{ID: "f", Points: pts}
	return c, true
}

func kalmanFuzzBytes(c diffCase) []byte {
	out := binary.LittleEndian.AppendUint64(nil, math.Float64bits(c.q))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.r))
	for _, p := range c.tr.Points {
		for _, v := range []float64{p.T, p.Pos.X, p.Pos.Y} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

func allFinite(tr *trajectory.Trajectory) bool {
	for _, p := range tr.Points {
		if !finitePos(p.Pos) {
			return false
		}
	}
	return true
}

// FuzzKalmanSmoothMatchesDense explores past the seeded corpus, where
// raw float bits soon leave the finite range. Always: same length, no
// panic. Step by step, for as long as the dense filter's state is
// finite, the per-axis state must be its bits. For the trajectory
// helpers, whose smoothed velocities the test cannot see, the rule is
// the one that cannot raise a false alarm: the two forms part only
// where one multiplies a non-finite value by a zero the other skips,
// which leaves a NaN on one side — so two finite outputs must be equal.
func FuzzKalmanSmoothMatchesDense(f *testing.F) {
	for _, c := range diffCorpus(24, 28) {
		if c.tr.Len() <= 64 {
			f.Add(kalmanFuzzBytes(c))
		}
	}
	negZero := math.Copysign(0, -1)
	f.Add(kalmanFuzzBytes(diffCase{&trajectory.Trajectory{Points: []trajectory.Point{
		{T: 0, Pos: geo.Pt(negZero, 0)}, {T: 0, Pos: geo.Pt(0, negZero)}, {T: 1e-6, Pos: geo.Pt(negZero, negZero)},
		{T: 1e4, Pos: geo.Pt(1e7, -1e7)}, {T: 1e4, Pos: geo.Pt(1e-3, 1e-3)},
	}}, 1e-6, 1e-7}))
	f.Add(kalmanFuzzBytes(diffCase{&trajectory.Trajectory{Points: []trajectory.Point{
		{T: 0, Pos: geo.Pt(1, 2)}, {T: math.NaN(), Pos: geo.Pt(math.Inf(1), 1e308)}, {T: 2, Pos: geo.Pt(3, 4)},
	}}, 1e6, 1e3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := kalmanFuzzInput(data)
		if !ok {
			return
		}
		for name, run := range map[string][2]func(*trajectory.Trajectory, float64, float64) *trajectory.Trajectory{
			"smoother": {KalmanSmoothTrajectory, denseSmoothTrajectory},
			"filter":   {KalmanFilterTrajectory, denseFilterTrajectory},
		} {
			got, want := run[0](c.tr, c.q, c.r), run[1](c.tr, c.q, c.r)
			if got.Len() != c.tr.Len() {
				t.Fatalf("%s: %d points from %d", name, got.Len(), c.tr.Len())
			}
			if allFinite(got) && allFinite(want) {
				sameTrajectoryBits(t, name, got, want)
			}
		}
		pts := c.tr.Points
		k, d := NewKalman(pts[0].Pos, c.q, c.r), newDenseKalman(pts[0].Pos, c.q, c.r)
		for i, p := range pts {
			if i > 0 {
				dt := math.Max(p.T-pts[i-1].T, 1e-9)
				k.Predict(dt)
				d.Predict(dt)
			}
			k.Update(p.Pos)
			d.Update(p.Pos)
			for _, v := range append(d.x.Data, d.p.Data...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return
				}
			}
			sameStateBits(t, fmt.Sprintf("state after point %d", i), k, d)
		}
	})
}
