package sidq_test

// Cross-package integration tests: full end-to-end flows that span the
// substrate, cleaning, middleware, and exploitation layers.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sidq/internal/core"
	"sidq/internal/exp"
	"sidq/internal/geo"
	"sidq/internal/integrate"
	"sidq/internal/quality"
	"sidq/internal/reduce"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
	"sidq/internal/uquery"
)

// TestEndToEndFleetFlow drives the full GPS-fleet story: simulate on a
// road network, corrupt, clean with the planned pipeline, map-match,
// compress, round-trip through CSV, index, and query — asserting the
// cleaned data answers queries better than the corrupted data.
func TestEndToEndFleetFlow(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 10, NY: 10, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 1})
	snapper := roadnet.NewSnapper(g, 100)
	trips := simulate.TripsWithRoutes(g, simulate.TripOptions{NumObjects: 4, MinHops: 10, Speed: 12, SampleInterval: 1, Seed: 2})

	ds := &core.Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           g.Bounds(),
		ExpectedInterval: 1,
		MaxSpeed:         25,
		Now:              300,
	}
	for i, trip := range trips {
		ds.Truth[trip.Truth.ID] = trip.Truth
		dirty := simulate.AddGaussianNoise(trip.Truth, 8, int64(10+i))
		dirty, _ = simulate.InjectOutliers(dirty, 0.04, 150, int64(20+i))
		ds.Trajectories = append(ds.Trajectories, dirty)
	}

	cleaned, stages, _, _ := core.PlanAndRunIterativeWith(context.Background(), nil, ds, core.DefaultTargets(), 1)
	if len(stages) == 0 {
		t.Fatal("planner found nothing to do on dirty data")
	}
	if cleaned.Assess()[quality.Accuracy] <= ds.Assess()[quality.Accuracy] {
		t.Fatal("cleaning did not improve accuracy")
	}

	// Map-match the cleaned trajectories and compress the routes.
	for i, tr := range cleaned.Trajectories {
		res, err := uncertain.MapMatch(g, snapper, tr, uncertain.MatchOptions{EmissionSigma: 10})
		if err != nil {
			t.Fatalf("map match %d: %v", i, err)
		}
		if acc := uncertain.RouteAccuracy(res.Route, trips[i].Path.Edges); acc < 0.5 {
			t.Fatalf("trip %d route accuracy %v", i, acc)
		}
		times := make([]float64, len(res.Route))
		for j := range times {
			times[j] = float64(j)
		}
		enc := reduce.EncodeNetworkTrip(reduce.NetworkTrip{Route: res.Route, Times: times}, 1)
		dec, err := reduce.DecodeNetworkTrip(enc)
		if err != nil || len(dec.Route) != len(res.Route) {
			t.Fatalf("trip %d round trip: %v", i, err)
		}
	}

	// CSV round trip of the cleaned data.
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, cleaned.Trajectories); err != nil {
		t.Fatal(err)
	}
	back, err := trajectory.ReadCSVColumns(&buf)
	if err != nil || len(back) != len(cleaned.Trajectories) {
		t.Fatalf("csv round trip: %v (%d)", err, len(back))
	}

	// Query layer: cleaned answers closer to the truth answers.
	truth := make([]*trajectory.Trajectory, 0, len(ds.Truth))
	for _, tr := range ds.Truth {
		truth = append(truth, tr)
	}
	rangeQuery := func(trs []*trajectory.Trajectory, rect geo.Rect, t0, t1 float64) []string {
		var ids []string
		for _, tr := range trs {
			if tr.Enters(rect, t0, t1) {
				ids = append(ids, tr.ID)
			}
		}
		sort.Strings(ids)
		return ids
	}
	agree := func(trs []*trajectory.Trajectory) int {
		n := 0
		for q := 0; q < 30; q++ {
			rect := geo.RectFromCenter(geo.Pt(float64(q*37%1000), float64(q*73%1000)), 80, 80)
			a := rangeQuery(trs, rect, float64(q), float64(q+40))
			b := rangeQuery(truth, rect, float64(q), float64(q+40))
			if fmt.Sprint(a) == fmt.Sprint(b) {
				n++
			}
		}
		return n
	}
	cleanAgree, dirtyAgree := agree(cleaned.Trajectories), agree(ds.Trajectories)
	if cleanAgree < dirtyAgree {
		t.Fatalf("cleaned query agreement %d < dirty %d", cleanAgree, dirtyAgree)
	}
}

// TestEndToEndSensorFlow drives the STID story: field -> corrupted
// readings -> repair -> interpolation -> attachment to a trajectory.
func TestEndToEndSensorFlow(t *testing.T) {
	field := simulate.NewField(simulate.FieldOptions{Seed: 3})
	_, readings := simulate.SensorNetwork(field, simulate.SensorNetworkOptions{
		NumSensors: 30, Interval: 300, Duration: 3600, NoiseSigma: 1, Seed: 4,
	})
	corrupted, _ := simulate.InjectValueOutliers(readings, 0.05, 70, 5)

	ds := &core.Dataset{
		Readings: corrupted,
		Region:   geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)},
	}
	cleaned, _, _ := core.DefaultRunner().Run(context.Background(), ds, []core.Stage{core.ThematicRepairStage{}})
	fieldErr := func(rs []stid.Reading) (sum float64) {
		for _, r := range rs {
			sum += math.Abs(r.Value - field.Value(r.Pos, r.T))
		}
		return sum / float64(len(rs))
	}
	if before, after := fieldErr(ds.Readings), fieldErr(cleaned.Readings); after >= before {
		t.Fatalf("thematic repair did not bring the readings closer to the field: %v -> %v", before, after)
	}

	// Attach the repaired readings to a vehicle's trajectory.
	veh := simulate.RandomWalk("veh", geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(900, 900)}, 60, 3, 60, 6)
	attached := integrate.AttachReadings(veh, cleaned.Readings, 150, 900)
	okCount := 0
	var mae float64
	for _, ap := range attached {
		if !ap.OK {
			continue
		}
		okCount++
		mae += math.Abs(ap.Value - field.Value(ap.Pos, ap.T))
	}
	if okCount < veh.Len()/2 {
		t.Fatalf("attached only %d points", okCount)
	}
	if mae/float64(okCount) > 10 {
		t.Fatalf("exposure MAE = %v", mae/float64(okCount))
	}
}

// TestQueryLayerConsistency cross-checks the two uncertain-object
// models: a discrete object built from Gaussian samples must agree
// with the analytic Gaussian on range probabilities.
func TestQueryLayerConsistency(t *testing.T) {
	g := uquery.GaussianObject{ID: "g", Mean: geo.Pt(100, 100), Sigma: 12}
	// Build a matching discrete object from deterministic quadrature
	// points of the same Gaussian (grid sampling).
	var samples []uquery.WeightedSample
	for dx := -4.0; dx <= 4.0; dx += 0.125 {
		for dy := -4.0; dy <= 4.0; dy += 0.125 {
			p := geo.Pt(100+dx*12, 100+dy*12)
			w := math.Exp(-(dx*dx + dy*dy) / 2)
			samples = append(samples, uquery.WeightedSample{Pos: p, W: w})
		}
	}
	d := uquery.NewDiscreteObject("d", samples)
	// Rect edges are chosen off the sample lattice (multiples of 6 m
	// from the mean): a mass point exactly on an inclusive boundary
	// would be fully counted where the integral counts half.
	for _, rect := range []geo.Rect{
		geo.RectFromCenter(geo.Pt(101, 99), 15.5, 14.5),
		geo.RectFromCenter(geo.Pt(121, 101), 20.5, 29.5),
		geo.RectFromCenter(geo.Pt(300, 300), 30, 30),
	} {
		pg := g.ProbInRect(rect)
		pd := d.ProbInRect(rect)
		if math.Abs(pg-pd) > 0.08 {
			t.Fatalf("rect %v: gaussian %v vs discrete %v", rect, pg, pd)
		}
	}
}

// TestExperimentHarnessSmoke runs two representative experiments through
// the public harness to guard the bench entry points.
func TestExperimentHarnessSmoke(t *testing.T) {
	if tb := exp.E7(1); len(tb.Rows) != 4 {
		t.Fatalf("E7 rows = %d", len(tb.Rows))
	}
	if s := exp.T1(1); len(s) == 0 {
		t.Fatal("T1 empty")
	}
}

// TestEndToEndEdgeStreamingFlow wires the streaming/edge story: GPS
// points arrive out of order, are reordered under a watermark, cleaned
// online (prediction repair semantics via the anomaly detector), map
// matched with a fixed-lag online matcher, and fed to a safe-region
// monitor — all incrementally, the way an edge deployment would run.
func TestEndToEndEdgeStreamingFlow(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 8, NY: 8, Spacing: 120, Seed: 11})
	snapper := roadnet.NewSnapper(g, 100)
	trip := simulate.TripsWithRoutes(g, simulate.TripOptions{NumObjects: 1, MinHops: 10, Speed: 12, SampleInterval: 1, Seed: 12})[0]
	noisy := simulate.AddGaussianNoise(trip.Truth, 8, 13)

	// Deliver with bounded disorder.
	delivered := append([]trajectory.Point(nil), noisy.Points...)
	rng := rand.New(rand.NewSource(14))
	for i := range delivered {
		j := i + rng.Intn(3)
		if j < len(delivered) {
			delivered[i], delivered[j] = delivered[j], delivered[i]
		}
	}

	reorder := stream.NewReorderer[trajectory.Point](5)
	matcher := uncertain.NewOnlineMatcher(g, snapper, uncertain.MatchOptions{EmissionSigma: 10}, 5)
	query := geo.RectFromCenter(trip.Truth.Points[trip.Truth.Len()/2].Pos, 150, 150)
	monitor := uquery.NewSafeRegionMonitor(query)

	var matched []uncertain.Matched
	process := func(evs []stream.Event[trajectory.Point]) {
		for _, ev := range evs {
			for _, m := range matcher.Push(ev.Value) {
				matched = append(matched, m)
				monitor.Update("veh", m.Snap.Pos)
			}
		}
	}
	for _, p := range delivered {
		process(reorder.Push(stream.Event[trajectory.Point]{Time: p.T, Value: p}))
	}
	process(reorder.Flush())
	for _, m := range matcher.Flush() {
		matched = append(matched, m)
		monitor.Update("veh", m.Snap.Pos)
	}

	if len(matched)+reorder.LateCount() != noisy.Len() {
		t.Fatalf("pipeline lost points: %d + %d != %d", len(matched), reorder.LateCount(), noisy.Len())
	}
	// Matched output is time-ordered and network-constrained.
	for i := 1; i < len(matched); i++ {
		if matched[i].Point.T < matched[i-1].Point.T {
			t.Fatal("output out of order")
		}
	}
	var matchErr, rawErr float64
	for _, m := range matched {
		tp, _ := trip.Truth.LocationAt(m.Point.T)
		matchErr += m.Snap.Pos.Dist(tp)
	}
	for _, p := range noisy.Points {
		tp, _ := trip.Truth.LocationAt(p.T)
		rawErr += p.Pos.Dist(tp)
	}
	if matchErr/float64(len(matched)) >= rawErr/float64(noisy.Len()) {
		t.Fatalf("online matching did not improve error: %v vs %v",
			matchErr/float64(len(matched)), rawErr/float64(noisy.Len()))
	}
	// The vehicle passed through the query region at mid-trip, so the
	// monitor must have seen it enter at some point.
	frac, reports, updates := monitor.Savings()
	if updates == 0 || reports == 0 {
		t.Fatal("monitor saw nothing")
	}
	_ = frac
}
