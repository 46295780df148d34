package sidq_test

// One benchmark per reproduced table/figure (see DESIGN.md's experiment
// index): each bench runs the corresponding experiment workload so the
// cost of regenerating every artifact is tracked, plus micro-benchmarks
// for the hot substrate paths the experiments lean on.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/core"
	"sidq/internal/exp"
	"sidq/internal/geo"
	"sidq/internal/index"
	"sidq/internal/quality"
	"sidq/internal/reduce"
	"sidq/internal/refine"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
	"sidq/internal/uquery"
)

func BenchmarkT1_CharacteristicMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = quality.CharacteristicMatrix(int64(i))
	}
}

func benchExperiment(b *testing.B, run func(seed int64) exp.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb := run(int64(i) + 1)
		if len(tb.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1_LocationRefinement(b *testing.B) {
	b.Run("ensemble", func(b *testing.B) { benchExperiment(b, exp.E1Radio) })
	b.Run("motion", func(b *testing.B) { benchExperiment(b, exp.E1Motion) })
	b.Run("collaborative", func(b *testing.B) { benchExperiment(b, exp.E1Collab) })
}

func BenchmarkE2_TrajectoryUE(b *testing.B)      { benchExperiment(b, exp.E2) }
func BenchmarkE3_STIDInterpolation(b *testing.B) { benchExperiment(b, exp.E3) }
func BenchmarkE4_OutlierRemoval(b *testing.B)    { benchExperiment(b, exp.E4) }
func BenchmarkE4b_RepairVsDrop(b *testing.B)     { benchExperiment(b, exp.E4b) }
func BenchmarkE5_FaultCorrection(b *testing.B)   { benchExperiment(b, exp.E5) }
func BenchmarkE6_Integration(b *testing.B)       { benchExperiment(b, exp.E6) }

func BenchmarkE7_Reduction(b *testing.B) {
	b.Run("trajectory", func(b *testing.B) { benchExperiment(b, exp.E7) })
	b.Run("codecs", func(b *testing.B) { benchExperiment(b, exp.E7b) })
}

func BenchmarkE8_UncertainQueries(b *testing.B)  { benchExperiment(b, exp.E8) }
func BenchmarkE9_DynamicsQueries(b *testing.B)   { benchExperiment(b, exp.E9) }
func BenchmarkE9b_SkewPartitioning(b *testing.B) { benchExperiment(b, exp.E9b) }
func BenchmarkE10_Analysis(b *testing.B)         { benchExperiment(b, exp.E10) }
func BenchmarkE11_DecisionMaking(b *testing.B)   { benchExperiment(b, exp.E11) }
func BenchmarkE12_PipelineAblation(b *testing.B) { benchExperiment(b, exp.E12) }
func BenchmarkE13_PrivateQueries(b *testing.B)   { benchExperiment(b, exp.E13) }
func BenchmarkE14_Federated(b *testing.B)        { benchExperiment(b, exp.E14) }

// --- substrate micro-benchmarks ---

func BenchmarkRTreeRange(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rt := index.NewRTree()
	for i := 0; i < 10000; i++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		rt.Insert(index.RectEntry{ID: fmt.Sprintf("r%d", i), Rect: geo.RectFromCenter(p, 2, 2)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Search(geo.RectFromCenter(geo.Pt(rng.Float64()*1000, rng.Float64()*1000), 50, 50))
	}
}

func BenchmarkShortestPath(b *testing.B) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 20, NY: 20, Spacing: 100, RemoveFrac: 0.2, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		c := roadnet.NodeID(rng.Intn(g.NumNodes()))
		_, _ = g.ShortestPath(a, c)
	}
}

// BenchmarkSnapDists is the routing row: the traffic the map matcher
// sends roadnet (4 candidates a fix, 12 m between fixes, 5 m noise;
// every previous candidate asks for its distance to every current
// one). One op is one pass over all trips: from a cold route cache in
// city and continental, so a pass is what misses, sweeps and stores
// cost; over the cache the pass before left in city_warm, the 98-99 %
// case the service lives in, so a pass is what hits cost.
//
// city is the 80x80 GridCity of the serving benchmark, where a sweep
// settles a handful of nodes; bench-compare gates it and city_warm.
// continental (144 cities of 60x60 intersections stitched by ~2 km
// highways: 518,400 nodes, ~1.7M directed edges) is the regime nothing
// serves but the route cache is kept for: a fix that slips backwards
// on a highway routes round it, a sweep pops thousands of nodes, and
// the cache absorbs nine lookups in ten. A change that drops the
// cache, or brings a hierarchy back, argues from that row.
func BenchmarkSnapDists(b *testing.B) {
	b.Run("city", func(b *testing.B) { benchSnapDists(b, benchCity(), 32, false) })
	b.Run("city_warm", func(b *testing.B) { benchSnapDists(b, benchCity(), 32, true) })
	b.Run("continental", func(b *testing.B) {
		benchSnapDists(b, roadnet.Continental(roadnet.ContinentalOptions{
			CitiesX: 12, CitiesY: 12,
			CityNX: 60, CityNY: 60,
			Jitter: 5, RemoveFrac: 0.15,
			Seed: 1,
		}), 4, false)
	})
}

// benchCity is the 80x80 GridCity of the serving benchmark.
func benchCity() *roadnet.Graph {
	return roadnet.GridCity(roadnet.GridCityOptions{NX: 80, NY: 80, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 41})
}

// BenchmarkKNearest is the matcher's candidate search alone: one op is
// one AppendKNearest (k = 4, into a reused dst) of the next of 4 096
// noisy on-road fixes (12 m apart, 5 m noise) on the serving
// benchmark's city. bench-compare gates it.
func BenchmarkKNearest(b *testing.B) {
	g := benchCity()
	snapper := roadnet.NewSnapper(g, 100)
	var fixes []geo.Point
	for i, tr := range simulate.Trips(g, simulate.TripOptions{NumObjects: 16, MinHops: 12, Speed: 12, SampleInterval: 1, Seed: 7}) {
		for _, p := range simulate.AddGaussianNoise(tr, 5, int64(8+i)).Points {
			fixes = append(fixes, p.Pos)
		}
	}
	if len(fixes) < 4096 {
		b.Fatalf("trips gave %d fixes, want 4096", len(fixes))
	}
	fixes = fixes[:4096]
	dst := make([]roadnet.Snap, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = snapper.AppendKNearest(dst[:0], fixes[i%len(fixes)], 4)
	}
}

func benchSnapDists(b *testing.B, g *roadnet.Graph, trips int, warm bool) {
	snapper := roadnet.NewSnapper(g, 100)
	var cands [][]roadnet.Snap // per fix; a nil entry separates trips
	for i, tr := range simulate.Trips(g, simulate.TripOptions{NumObjects: trips, MinHops: 12, Speed: 12, SampleInterval: 1, Seed: 7}) {
		cands = append(cands, nil)
		for _, p := range simulate.AddGaussianNoise(tr, 5, int64(8+i)).Points {
			cands = append(cands, snapper.KNearest(p.Pos, 4))
		}
	}
	var out [4]float64
	pass := func(e *roadnet.Engine) {
		for k := 1; k < len(cands); k++ {
			if cands[k] == nil {
				continue
			}
			for _, from := range cands[k-1] {
				e.SnapDists(from, cands[k], math.Inf(1), out[:len(cands[k])])
			}
		}
	}
	e := g.BuildEngine()
	if warm {
		pass(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			b.StopTimer()
			e = g.BuildEngine() // cold cache
			b.StartTimer()
		}
		pass(e)
	}
}

func BenchmarkKalmanSmooth(b *testing.B) {
	truth := simulate.RandomWalk("w", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 1000, 2, 1, 5)
	noisy := simulate.AddGaussianNoise(truth, 8, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refine.KalmanSmoothTrajectory(noisy, 1, 8)
	}
}

func BenchmarkDouglasPeucker(b *testing.B) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 12, NY: 12, Spacing: 120, Seed: 7})
	trip := simulate.Trips(g, simulate.TripOptions{NumObjects: 1, MinHops: 20, Speed: 12, SampleInterval: 0.5, Seed: 7})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduce.DouglasPeuckerSED(trip, 10)
	}
}

func BenchmarkProbRange(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	objs := make([]uquery.UncertainObject, 2000)
	for i := range objs {
		objs[i] = uquery.GaussianObject{
			ID:    fmt.Sprintf("o%d", i),
			Mean:  geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Sigma: 10,
		}
	}
	rect := geo.RectFromCenter(geo.Pt(500, 500), 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uquery.ProbRange(objs, rect, 0.5)
	}
}

// benchPipelineDataset is a dirty many-trajectory dataset for the
// pipeline and clone benchmarks.
func benchPipelineDataset(n int) *core.Dataset {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &core.Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Now:              300,
	}
	for i := 0; i < n; i++ {
		truth := simulate.RandomWalk(fmt.Sprintf("v%d", i), region, 250, 2, 1, int64(i))
		ds.Truth[truth.ID] = truth
		dirty := simulate.AddGaussianNoise(truth, 6, int64(i)+100)
		dirty = simulate.DuplicateSamples(dirty, 0.1, int64(i)+200)
		ds.Trajectories = append(ds.Trajectories, dirty)
	}
	return ds
}

// BenchmarkPipeline runs a fixed list of the four trajectory cleaning
// stages (dedup, outlier removal, smoothing, imputation) over a
// 32-trajectory dataset on the default runner. Nothing is planned or
// assessed.
func BenchmarkPipeline(b *testing.B) {
	ds := benchPipelineDataset(32)
	stages := []core.Stage{
		core.DeduplicateStage{},
		core.OutlierRemovalStage{},
		core.SmoothingStage{},
		core.ImputeStage{},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, _, _ := core.DefaultRunner().Run(context.Background(), ds, stages)
		if len(out.Trajectories) != 32 {
			b.Fatal("pipeline lost trajectories")
		}
	}
}

type benchNoopStage struct{}

func (s benchNoopStage) Name() string    { return "bench-noop" }
func (s benchNoopStage) Task() core.Task { return core.FaultCorrection }
func (s benchNoopStage) CleanPoints(_ context.Context, _ *core.StageRun, tr *trajectory.Trajectory, _ []trajectory.Point) ([]trajectory.Point, error) {
	return tr.Points, nil
}
func (s benchNoopStage) CleanReadings(_ context.Context, _ *core.StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}

// BenchmarkRunnerCloneCOW isolates what the runner pays for a stage that
// changes nothing: its worker, its calls and its output's trajectory
// list. (The name is a baseline row's; the per-stage copy-on-write clone
// it was written to measure is gone.)
func BenchmarkRunnerCloneCOW(b *testing.B) {
	ds := benchPipelineDataset(32)
	b.Run("runner=cow", func(b *testing.B) {
		b.ReportAllocs()
		stages := []core.Stage{benchNoopStage{}}
		for i := 0; i < b.N; i++ {
			out, _, _ := core.DefaultRunner().Run(context.Background(), ds, stages)
			if len(out.Trajectories) != 32 {
				b.Fatal("runner lost trajectories")
			}
		}
	})
}

func BenchmarkMapMatch(b *testing.B) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 12, NY: 12, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 17})
	snapper := roadnet.NewSnapper(g, 100)
	trips := simulate.Trips(g, simulate.TripOptions{NumObjects: 3, MinHops: 12, Speed: 12, SampleInterval: 1, Seed: 18})
	noisy := make([]*trajectory.Trajectory, len(trips))
	for i, tr := range trips {
		noisy[i] = simulate.AddGaussianNoise(tr, 10, int64(19+i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range noisy {
			_, _ = uncertain.MapMatch(g, snapper, tr, uncertain.MatchOptions{EmissionSigma: 12})
		}
	}
}

func BenchmarkOnlineMapMatch(b *testing.B) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 10, NY: 10, Spacing: 120, Seed: 10})
	snapper := roadnet.NewSnapper(g, 100)
	trip := simulate.Trips(g, simulate.TripOptions{NumObjects: 1, MinHops: 15, Speed: 12, SampleInterval: 1, Seed: 10})[0]
	noisy := simulate.AddGaussianNoise(trip, 10, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := uncertain.NewOnlineMatcher(g, snapper, uncertain.MatchOptions{EmissionSigma: 12}, 5)
		for _, p := range noisy.Points {
			m.Push(p)
		}
		m.Flush()
	}
}
