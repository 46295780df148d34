package exp

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"sidq/internal/analysis"
	"sidq/internal/core"
	"sidq/internal/decide"
	"sidq/internal/geo"
	"sidq/internal/outlier"
	"sidq/internal/quality"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
	"sidq/internal/uquery"
)

// E10 evaluates the analysis layer: uncertain clustering quality vs
// noise, stream anomaly F1, and popular-route recovery overlap.
func E10(seed int64) Table {
	t := Table{
		ID:    "E10",
		Title: "analysis over low-quality SID",
		Cols:  []string{"σ (m)", "DBSCAN ARI", "anomaly F1", "popular-route overlap"},
		Notes: []string{"3 blobs + noise; anomalies = teleports in a 300-pt stream; routes: 30 noisy copies of one path"},
	}
	for _, sigma := range []float64{2, 10, 30, 60} {
		// Clustering.
		objs, truthLabels := blobs(sigma, seed)
		labels := analysis.UncertainDBSCAN(objs, 60, 5)
		ari := analysis.AdjustedRandIndex(labels, truthLabels)

		// Stream anomaly detection: teleports proportional in size to
		// sigma (noise raises the detection floor).
		rng := rand.New(rand.NewSource(seed + 1))
		var pts []trajectory.Point
		pos := geo.Pt(0, 0)
		for i := 0; i < 300; i++ {
			pos = pos.Add(geo.Pt(10+rng.NormFloat64()*sigma/10, rng.NormFloat64()*sigma/10))
			pts = append(pts, trajectory.Point{T: float64(i), Pos: pos})
		}
		tr := trajectory.New("t", pts)
		truthFlags := make([]bool, tr.Len())
		for _, idx := range []int{100, 200} {
			tr.Points[idx].Pos = tr.Points[idx].Pos.Add(geo.Pt(0, 500))
			truthFlags[idx] = true
		}
		got := analysis.DetectTrajectory(tr, 5)
		// Score only the injected points (recovery position after a
		// teleport may legitimately flag idx+1 too; ignore those).
		var s outlier.Score
		for i := range truthFlags {
			switch {
			case got[i] && truthFlags[i]:
				s.TP++
			case got[i] && !truthFlags[i] && !(i > 0 && truthFlags[i-1]):
				s.FP++
			case !got[i] && truthFlags[i]:
				s.FN++
			}
		}

		// Popular route (noise level controls how many edges get dropped).
		routes := noisyRoutes(seed+2, sigma)
		route := analysis.PopularRoute(routes.noisy, 100)
		dom := map[int]bool{}
		for _, e := range routes.truth {
			dom[int(e)] = true
		}
		hits := 0
		for _, e := range route {
			if dom[int(e)] {
				hits++
			}
		}
		overlap := 0.0
		if len(route) > 0 {
			overlap = float64(hits) / float64(len(route))
		}
		t.AddRow(F1(sigma), F(ari), F(s.F1()), F(overlap))
	}
	return t
}

func blobs(sigma float64, seed int64) ([]uquery.UncertainObject, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := []geo.Point{{X: 100, Y: 100}, {X: 800, Y: 200}, {X: 400, Y: 800}}
	var objs []uquery.UncertainObject
	var labels []int
	id := 0
	for c, center := range centers {
		for i := 0; i < 40; i++ {
			mean := center.Add(geo.Pt(rng.NormFloat64()*25, rng.NormFloat64()*25))
			objs = append(objs, uquery.GaussianObject{ID: fmt.Sprintf("o%d", id), Mean: mean, Sigma: sigma})
			labels = append(labels, c)
			id++
		}
	}
	for i := 0; i < 12; i++ {
		objs = append(objs, uquery.GaussianObject{
			ID: fmt.Sprintf("n%d", i), Mean: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), Sigma: sigma,
		})
		labels = append(labels, analysis.Noise)
	}
	return objs, labels
}

type routeSet struct {
	truth []roadnet.EdgeID
	noisy [][]roadnet.EdgeID
}

// noisyRoutes builds a dominant path plus noisy copies; higher sigma
// drops more edges per copy.
func noisyRoutes(seed int64, sigma float64) routeSet {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 8, NY: 8, Spacing: 100, Seed: seed})
	path, err := g.ShortestPath(0, roadnet.NodeID(g.NumNodes()-1))
	if err != nil {
		return routeSet{}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	dropProb := sigma / 200 // 0.01..0.3 across the sweep
	var rs routeSet
	rs.truth = path.Edges
	for i := 0; i < 30; i++ {
		var r []roadnet.EdgeID
		for _, e := range path.Edges {
			if rng.Float64() < dropProb {
				continue
			}
			r = append(r, e)
		}
		if len(r) > 0 {
			rs.noisy = append(rs.noisy, r)
		}
	}
	return rs
}

// E11 evaluates decision-making under low data quality: next-location
// prediction vs training completeness (with and without incremental
// decay under drift), traffic inference MAE, recommendation hit rate
// under check-in uncertainty, and DQ-aware task assignment.
func E11(seed int64) Table {
	t := Table{
		ID:    "E11",
		Title: "decision-making: accuracy vs data quality deficits",
		Cols:  []string{"deficit", "markov acc", "traffic MAE naive", "traffic MAE smoothed", "rec hit@5", "assign aware/blind"},
		Notes: []string{"deficit = train-data drop fraction / check-in uncertainty / probe rate scenario coupling"},
	}
	for _, deficit := range []float64{0, 0.25, 0.5, 0.75} {
		// Next-location prediction with dropped training data.
		_, events := simulate.CheckIns(simulate.CheckInOptions{
			NumPOIs: 25, NumUsers: 12, VisitsEach: 60, Seed: seed,
		})
		byUser := map[string][]string{}
		var users []string
		for _, e := range events {
			if _, ok := byUser[e.UserID]; !ok {
				users = append(users, e.UserID)
			}
			byUser[e.UserID] = append(byUser[e.UserID], e.TruePOI)
		}
		// Users in id order: each draws from rng, so map order would
		// move the drop pattern from run to run.
		sort.Strings(users)
		rng := rand.New(rand.NewSource(seed + int64(deficit*100)))
		var train, test [][]string
		for _, user := range users {
			seq := byUser[user]
			cut := len(seq) * 3 / 4
			var kept []string
			for _, sym := range seq[:cut] {
				if rng.Float64() >= deficit {
					kept = append(kept, sym)
				}
			}
			train = append(train, kept)
			test = append(test, seq[cut:])
		}
		m := decide.NewMarkovPredictor(1)
		m.Train(train)
		acc := m.Accuracy(test)

		// Traffic inference: penetration rate shrinks with the deficit.
		rate := 0.4 * (1 - deficit)
		if rate < 0.05 {
			rate = 0.05
		}
		bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
		truthGrid := decide.NewVolumeGrid(bounds, 10, 10)
		obsGrid := decide.NewVolumeGrid(bounds, 10, 10)
		for i := 0; i < 20000; i++ {
			var p geo.Point
			if rng.Float64() < 0.7 {
				p = geo.Pt(rng.Float64()*1000, 300+rng.NormFloat64()*120)
			} else {
				p = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			truthGrid.Add(p)
			if rng.Float64() < rate {
				obsGrid.Add(p)
			}
		}
		truthCounts := truthGrid.Counts()
		naive := decide.MAE(obsGrid.InferVolumes(rate, 0), truthCounts)
		smoothed := decide.MAE(obsGrid.InferVolumes(rate, 1), truthCounts)

		// Recommendation under uncertainty = deficit.
		_, uev := simulate.CheckIns(simulate.CheckInOptions{
			NumPOIs: 20, NumUsers: 8, VisitsEach: 50, Uncertainty: deficit, Seed: seed + 7,
		})
		rec := decide.NewRecommender(0.2)
		cut := len(uev) * 3 / 4
		for _, e := range uev[:cut] {
			var visit decide.UncertainVisit
			for _, c := range e.Candidates {
				visit = append(visit, decide.POIProb{POI: c.POI, Prob: c.Prob})
			}
			rec.Observe(e.UserID, visit)
		}
		var tests []struct {
			User string
			POI  string
		}
		for _, e := range uev[cut:] {
			tests = append(tests, struct {
				User string
				POI  string
			}{e.UserID, e.TruePOI})
		}
		hit := rec.HitRate(tests, 5)

		// Task assignment: worker sigma grows with the deficit.
		ratio := assignRatio(seed+9, 20+deficit*200)
		t.AddRow(F(deficit), F(acc), F1(naive), F1(smoothed), F(hit), F(ratio))
	}
	return t
}

// assignRatio returns realized utility of DQ-aware over DQ-blind
// assignment when half the fleet has the given positional sigma.
func assignRatio(seed int64, badSigma float64) float64 {
	rng := rand.New(rand.NewSource(seed))
	const n = 30
	workers := make([]decide.Worker, n)
	truePos := map[string]geo.Point{}
	for i := range workers {
		truth := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		sigma := 5.0
		if i%2 == 0 {
			sigma = badSigma
		}
		workers[i] = decide.Worker{ID: fmt.Sprintf("w%d", i), Sigma: sigma}
		truePos[workers[i].ID] = truth
	}
	tasks := make([]decide.Task, 15)
	for i := range tasks {
		tasks[i] = decide.Task{
			ID: fmt.Sprintf("t%d", i), Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Reward: 1, MaxRange: 250,
		}
	}
	var aware, blind float64
	for trial := 0; trial < 15; trial++ {
		for i := range workers {
			workers[i].Reported = truePos[workers[i].ID].Add(
				geo.Pt(rng.NormFloat64()*workers[i].Sigma, rng.NormFloat64()*workers[i].Sigma))
		}
		aware += decide.RealizedUtility(decide.AssignTasks(workers, tasks, true), workers, truePos, tasks)
		blind += decide.RealizedUtility(decide.AssignTasks(workers, tasks, false), workers, truePos, tasks)
	}
	if blind == 0 {
		return 1
	}
	return aware / blind
}

// E12 is the pipeline ablation: the planned cleaning pipeline versus
// versions with one stage removed (and a reversed-order variant), each
// scored on final accuracy and on a downstream spatio-temporal range
// query's F1 against ground truth.
func E12(seed int64) Table {
	t := Table{
		ID:    "E12",
		Title: "pipeline ablation: cleaning accuracy and downstream query F1",
		Cols:  []string{"pipeline", "accuracy", "precision err (m)", "query F1"},
		Notes: []string{"query: 40 random ST range queries on a trajectory index over cleaned vs truth data"},
	}
	ds := e12Dataset(seed)
	full := []core.Stage{
		core.DeduplicateStage{},
		core.OutlierRemovalStage{},
		core.SmoothingStage{},
		core.ImputeStage{},
	}
	variants := []struct {
		name   string
		stages []core.Stage
	}{
		{"none (raw)", nil},
		{"full plan", full},
		{"- dedup", full[1:]},
		{"- outliers", []core.Stage{full[0], full[2], full[3]}},
		{"- smoothing", []core.Stage{full[0], full[1], full[3]}},
		{"- impute", full[:3]},
		{"reversed", []core.Stage{full[3], full[2], full[1], full[0]}},
	}
	for _, v := range variants {
		cleaned, _, _ := pipelineRunner().Run(context.Background(), ds, v.stages)
		a := cleaned.Assess()
		f1 := downstreamQueryF1(cleaned, seed+3)
		t.AddRow(v.name, F(a[quality.Accuracy]), F(a[quality.PrecisionError]), F(f1))
	}
	return t
}

func e12Dataset(seed int64) *core.Dataset {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &core.Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Now:              600,
	}
	for i := 0; i < 4; i++ {
		truth := simulate.RandomWalk(fmt.Sprintf("v%d", i), region, 600, 2, 1, seed+int64(i))
		ds.Truth[truth.ID] = truth
		dirty := simulate.AddGaussianNoise(truth, 6, seed+20+int64(i))
		dirty, _ = simulate.InjectOutliers(dirty, 0.03, 120, seed+30+int64(i))
		dirty = simulate.DropSamples(dirty, 0.2, seed+40+int64(i))
		dirty = simulate.DuplicateSamples(dirty, 0.1, seed+10+int64(i))
		ds.Trajectories = append(ds.Trajectories, dirty)
	}
	return ds
}

// downstreamQueryF1 runs random spatio-temporal range queries on the
// cleaned trajectories and on the truth, answering each by testing
// every trajectory with Enters, and scores the cleaned answers against
// the truth answers.
func downstreamQueryF1(ds *core.Dataset, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var tp, fp, fn int
	for q := 0; q < 40; q++ {
		rect := geo.RectFromCenter(
			geo.Pt(rng.Float64()*1000, rng.Float64()*1000), 60, 60)
		t0 := rng.Float64() * 500
		t1 := t0 + 50
		got, want := map[string]bool{}, map[string]bool{}
		for _, tr := range ds.Trajectories {
			if tr.Enters(rect, t0, t1) {
				got[tr.ID] = true
			}
		}
		for _, tr := range ds.Truth {
			if tr.Enters(rect, t0, t1) {
				want[tr.ID] = true
			}
		}
		hits := 0
		for id := range got {
			if want[id] {
				hits++
			}
		}
		tp += hits
		fp += len(got) - hits
		fn += len(want) - hits
	}
	if tp == 0 {
		if fp == 0 && fn == 0 {
			return 1
		}
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}
