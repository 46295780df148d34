package simulate

import (
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

func testCity() *roadnet.Graph {
	return roadnet.GridCity(roadnet.GridCityOptions{
		NX: 8, NY: 8, Spacing: 100, Jitter: 5, RemoveFrac: 0.15, Seed: 42,
	})
}

func TestTripsDeterministicAndOnNetwork(t *testing.T) {
	g := testCity()
	opt := TripOptions{NumObjects: 5, SampleInterval: 1, Seed: 9}
	trips := Trips(g, opt)
	trips2 := Trips(g, opt)
	if len(trips) != 5 {
		t.Fatalf("trips = %d", len(trips))
	}
	for i := range trips {
		if trips[i].Len() != trips2[i].Len() {
			t.Fatal("generator not deterministic")
		}
		if trips[i].Len() < 2 {
			t.Fatalf("trip %d too short", i)
		}
	}
	// Every point lies near some edge of the network (on it, up to jitterless snap tolerance).
	s := roadnet.NewSnapper(g, 100)
	for _, tr := range trips {
		for _, p := range tr.Points {
			snaps := s.KNearest(p.Pos, 1)
			if len(snaps) == 0 || snaps[0].Dist > 1e-6 {
				t.Fatalf("trip point %v off network: %v", p.Pos, snaps)
			}
		}
	}
}

func TestTripsConstantSpeed(t *testing.T) {
	g := testCity()
	trips := Trips(g, TripOptions{NumObjects: 3, Speed: 10, SampleInterval: 1, Seed: 1})
	for _, tr := range trips {
		for i := 1; i < tr.Len()-1; i++ { // last segment may be shorter
			a, b := tr.Points[i-1], tr.Points[i]
			s := a.Pos.Dist(b.Pos) / (b.T - a.T)
			// Sampling cuts polyline corners, so observed speed can drop
			// to ~speed/sqrt(2) at a right-angle turn, never above speed.
			if s > 10.5 || s < 6.5 {
				t.Fatalf("segment %d speed %v", i-1, s)
			}
		}
	}
}

func TestTripsWithRoutes(t *testing.T) {
	g := testCity()
	trips := TripsWithRoutes(g, TripOptions{NumObjects: 4, Seed: 3})
	for _, trip := range trips {
		if len(trip.Path.Nodes) < 2 {
			t.Fatal("route too short")
		}
		// Trajectory endpoints coincide with route endpoints.
		first := g.Node(trip.Path.Nodes[0]).Pos
		last := g.Node(trip.Path.Nodes[len(trip.Path.Nodes)-1]).Pos
		if trip.Truth.Points[0].Pos.Dist(first) > 1e-6 {
			t.Fatal("start mismatch")
		}
		if trip.Truth.Points[trip.Truth.Len()-1].Pos.Dist(last) > 1e-6 {
			t.Fatal("end mismatch")
		}
	}
}

func TestRandomWalkStaysInBounds(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}
	tr := RandomWalk("w", bounds, 500, 1.5, 1, 7)
	if tr.Len() != 500 {
		t.Fatalf("len = %d", tr.Len())
	}
	for _, p := range tr.Points {
		if !bounds.Contains(p.Pos) {
			t.Fatalf("point %v escaped bounds", p.Pos)
		}
	}
}

func TestAddGaussianNoiseStats(t *testing.T) {
	truth := RandomWalk("w", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 2000, 1.5, 1, 1)
	noisy := AddGaussianNoise(truth, 5, 2)
	var sum float64
	for i := range noisy.Points {
		sum += noisy.Points[i].Pos.Dist(truth.Points[i].Pos)
	}
	mean := sum / float64(noisy.Len())
	// Mean displacement of 2D Gaussian with sigma=5 is sigma*sqrt(pi/2) ≈ 6.27.
	if mean < 5.5 || mean > 7.0 {
		t.Fatalf("mean displacement = %v", mean)
	}
	// Truth untouched.
	if truth.Points[0].Pos != AddGaussianNoise(truth, 5, 2).Points[0].Pos.Sub(noisy.Points[0].Pos).Add(noisy.Points[0].Pos) {
		t.Log("determinism check") // same seed must give same noise
	}
	n2 := AddGaussianNoise(truth, 5, 2)
	for i := range n2.Points {
		if n2.Points[i] != noisy.Points[i] {
			t.Fatal("noise not deterministic")
		}
	}
}

func TestInjectOutliers(t *testing.T) {
	truth := RandomWalk("w", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 1000, 1.5, 1, 3)
	noisy, flags := InjectOutliers(truth, 0.1, 100, 4)
	var n int
	for i, f := range flags {
		d := noisy.Points[i].Pos.Dist(truth.Points[i].Pos)
		if f {
			n++
			if d < 100 {
				t.Fatalf("outlier %d displaced only %v", i, d)
			}
		} else if d != 0 {
			t.Fatalf("non-outlier %d moved", i)
		}
	}
	if n < 60 || n > 140 { // ~100 expected
		t.Fatalf("outliers injected = %d", n)
	}
}

func TestDropAndDuplicate(t *testing.T) {
	truth := RandomWalk("w", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}, 1000, 1, 1, 5)
	dropped := DropSamples(truth, 0.3, 6)
	if dropped.Len() >= truth.Len() || dropped.Len() < 500 {
		t.Fatalf("dropped len = %d", dropped.Len())
	}
	if dropped.Points[0] != truth.Points[0] ||
		dropped.Points[dropped.Len()-1] != truth.Points[truth.Len()-1] {
		t.Fatal("endpoints not preserved")
	}
	dup := DuplicateSamples(truth, 0.2, 7)
	if dup.Len() <= truth.Len() {
		t.Fatalf("dup len = %d", dup.Len())
	}
}

func TestJitterAndDelay(t *testing.T) {
	truth := RandomWalk("w", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}, 200, 1, 1, 8)
	delayed, delays := DelayReports(truth, 3, 10)
	var mean float64
	for i, d := range delays {
		if d < 0 {
			t.Fatal("negative delay")
		}
		if delayed.Points[i].T != truth.Points[i].T+d {
			t.Fatal("delay not applied")
		}
		mean += d
	}
	mean /= float64(len(delays))
	if mean < 2 || mean > 4 {
		t.Fatalf("mean delay = %v", mean)
	}
}

func TestCorruptionApply(t *testing.T) {
	truth := RandomWalk("w", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(500, 500)}, 500, 1.5, 1, 11)
	c := Corruption{NoiseSigma: 3, OutlierRate: 0.05, OutlierMag: 50, DropRate: 0.1, Seed: 12}
	got, flags := c.Apply(truth)
	if got.Len() >= truth.Len() {
		t.Fatal("drop not applied")
	}
	if len(flags) != got.Len() {
		t.Fatal("flag alignment")
	}
	var any bool
	for _, f := range flags {
		any = any || f
	}
	if !any {
		t.Fatal("no outliers injected")
	}
	// Zero corruption is identity.
	id, flags0 := Corruption{}.Apply(truth)
	if id.Len() != truth.Len() {
		t.Fatal("identity corruption changed length")
	}
	for _, f := range flags0 {
		if f {
			t.Fatal("identity corruption flagged outliers")
		}
	}
}

func TestFieldSmoothness(t *testing.T) {
	f := NewField(FieldOptions{Seed: 13})
	// Spatial smoothness: nearby points have nearby values.
	p := geo.Pt(400, 400)
	v0 := f.Value(p, 0)
	v1 := f.Value(p.Add(geo.Pt(1, 1)), 0)
	if math.Abs(v0-v1) > 1 {
		t.Fatalf("field not smooth: %v vs %v", v0, v1)
	}
	// Temporal variation exists.
	if f.Value(p, 0) == f.Value(p, 21600) {
		t.Fatal("field has no temporal variation")
	}
	// Determinism.
	f2 := NewField(FieldOptions{Seed: 13})
	if f2.Value(p, 123) != f.Value(p, 123) {
		t.Fatal("field not deterministic")
	}
}

func TestSensorNetwork(t *testing.T) {
	f := NewField(FieldOptions{Seed: 14})
	sensors, readings := SensorNetwork(f, SensorNetworkOptions{
		NumSensors: 20, Interval: 600, Duration: 6000, NoiseSigma: 1, Seed: 15,
	})
	if len(sensors) != 20 {
		t.Fatalf("sensors = %d", len(sensors))
	}
	// 11 epochs * 20 sensors with no dropout.
	if len(readings) != 11*20 {
		t.Fatalf("readings = %d", len(readings))
	}
	// Readings approximate the field up to noise.
	var worst float64
	for _, r := range readings {
		err := math.Abs(r.Value - f.Value(r.Pos, r.T))
		if err > worst {
			worst = err
		}
	}
	if worst > 15 { // noise sigma 1 → a generous cap
		t.Fatalf("worst reading error = %v", worst)
	}
	// Dropout reduces count.
	_, sparse := SensorNetwork(f, SensorNetworkOptions{
		NumSensors: 20, Interval: 600, Duration: 6000, DropRate: 0.5, Seed: 16,
	})
	if len(sparse) >= 11*20 {
		t.Fatal("dropout ineffective")
	}
	// Series grouping works on generated ids.
	series := stid.NewSeries(readings)
	if len(series) != 20 {
		t.Fatalf("series = %d", len(series))
	}
}

func TestInjectValueOutliers(t *testing.T) {
	f := NewField(FieldOptions{Seed: 17})
	_, readings := SensorNetwork(f, SensorNetworkOptions{NumSensors: 10, Interval: 60, Duration: 6000, Seed: 18})
	corrupted, flags := InjectValueOutliers(readings, 0.1, 50, 19)
	var n int
	for i := range corrupted {
		diff := math.Abs(corrupted[i].Value - readings[i].Value)
		if flags[i] {
			n++
			if diff < 50 {
				t.Fatalf("outlier %d spike only %v", i, diff)
			}
		} else if diff != 0 {
			t.Fatal("clean reading modified")
		}
	}
	if n == 0 {
		t.Fatal("no outliers")
	}
}

func TestRadioEnvMonotone(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}
	env := NewRadioEnv(bounds, 9, 2.5, 0, 20)
	if len(env.Beacons) != 9 {
		t.Fatalf("beacons = %d", len(env.Beacons))
	}
	b := env.Beacons[0]
	near := env.TrueRSSI(b, b.Pos.Add(geo.Pt(2, 0)))
	far := env.TrueRSSI(b, b.Pos.Add(geo.Pt(50, 0)))
	if near <= far {
		t.Fatalf("RSSI not monotone: near %v far %v", near, far)
	}
	// Sub-meter distances clamp to 1 m.
	if env.TrueRSSI(b, b.Pos) != b.TxPower {
		t.Fatal("RSSI at 0 distance should equal TxPower")
	}
}

func TestFingerprintMapAndObserve(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(50, 50)}
	env := NewRadioEnv(bounds, 4, 2.5, 2, 21)
	fps := env.FingerprintMap(bounds, 10, 3, 22)
	if len(fps) != 36 { // 6x6 grid at spacing 10 over [0,50]
		t.Fatalf("fingerprints = %d", len(fps))
	}
	for _, fp := range fps {
		if len(fp.RSSI) != 4 {
			t.Fatal("fingerprint vector size")
		}
	}
	rng := rand.New(rand.NewSource(23))
	obs := env.Observe(geo.Pt(25, 25), rng)
	if len(obs) != 4 {
		t.Fatal("observation size")
	}
	ranges := env.ObserveRanges(geo.Pt(25, 25), 1, rng)
	for _, r := range ranges {
		if r.Range < 0.1 {
			t.Fatal("range floor violated")
		}
	}
}

func TestSymbolicWorld(t *testing.T) {
	w := Symbolic("obj1", SymbolicOptions{
		NumReaders: 8, Spacing: 20, Range: 8, Epoch: 1, Speed: 2,
		FalseNeg: 0.2, FalsePos: 0.05, Seed: 24,
	})
	if len(w.Readers) != 8 {
		t.Fatalf("readers = %d", len(w.Readers))
	}
	if len(w.Epochs) == 0 || len(w.Detections) == 0 {
		t.Fatal("no epochs or detections")
	}
	// Truth must cover every epoch key.
	for _, e := range w.Epochs {
		if _, ok := w.Truth[e]; !ok {
			t.Fatalf("epoch %v missing truth", e)
		}
	}
	// With FN=0, FP=0 the detections match the truth exactly.
	clean := Symbolic("obj1", SymbolicOptions{
		NumReaders: 8, Spacing: 20, Range: 8, Epoch: 1, Speed: 2, Seed: 25,
	})
	for _, d := range clean.Detections {
		if clean.Truth[d.T] != d.ReaderID {
			t.Fatalf("clean detection %v disagrees with truth %q", d, clean.Truth[d.T])
		}
	}
	// Faulty world must contain at least one FP or FN.
	var faults int
	seen := map[float64]map[string]bool{}
	for _, d := range w.Detections {
		if seen[d.T] == nil {
			seen[d.T] = map[string]bool{}
		}
		seen[d.T][d.ReaderID] = true
		if w.Truth[d.T] != d.ReaderID {
			faults++ // false positive
		}
	}
	for _, e := range w.Epochs {
		if trueID := w.Truth[e]; trueID != "" && !seen[e][trueID] {
			faults++ // false negative
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected at 20% FN / 5% FP")
	}
}

func TestCheckInsGenerator(t *testing.T) {
	pois, events := CheckIns(CheckInOptions{NumPOIs: 20, NumUsers: 5, VisitsEach: 30, Uncertainty: 0.3, Seed: 26})
	if len(pois) != 20 {
		t.Fatalf("pois = %d", len(pois))
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	poiIDs := map[string]bool{}
	for _, p := range pois {
		poiIDs[p.ID] = true
	}
	for i, e := range events {
		if i > 0 && e.T < events[i-1].T {
			t.Fatal("events not time ordered")
		}
		if !poiIDs[e.TruePOI] {
			t.Fatalf("unknown true poi %q", e.TruePOI)
		}
		var mass float64
		for _, c := range e.Candidates {
			mass += c.Prob
			if !poiIDs[c.POI] {
				t.Fatalf("unknown candidate poi %q", c.POI)
			}
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("candidate mass = %v", mass)
		}
		if e.Candidates[0].POI != e.TruePOI {
			t.Fatal("first candidate should be the true poi")
		}
	}
	// Zero uncertainty yields single certain candidates.
	_, certain := CheckIns(CheckInOptions{NumPOIs: 10, NumUsers: 2, VisitsEach: 5, Seed: 27})
	for _, e := range certain {
		if len(e.Candidates) != 1 || e.Candidates[0].Prob != 1 {
			t.Fatal("certain check-in has uncertainty")
		}
	}
}

var _ = trajectory.Trajectory{} // keep import for helper types in this file
