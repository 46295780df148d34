package decide

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/simulate"
)

func checkinSequences(uncertainty float64, seed int64) ([][]string, [][]string) {
	_, events := simulate.CheckIns(simulate.CheckInOptions{
		NumPOIs: 25, NumUsers: 12, VisitsEach: 60, Uncertainty: uncertainty, Seed: seed,
	})
	byUser := map[string][]string{}
	for _, e := range events {
		byUser[e.UserID] = append(byUser[e.UserID], e.TruePOI)
	}
	var train, test [][]string
	for _, seq := range byUser {
		cut := len(seq) * 3 / 4
		train = append(train, seq[:cut])
		test = append(test, seq[cut:])
	}
	return train, test
}

func TestMarkovPredictorLearnsHabits(t *testing.T) {
	train, test := checkinSequences(0, 1)
	m := NewMarkovPredictor(1)
	m.Train(train)
	acc := m.Accuracy(test)
	// The generator picks the next POI uniformly within the next
	// habitual category (~5 POIs/category), so ~10% is the model
	// ceiling; anything well above the 1/25 = 4% uniform baseline
	// shows the habit was learned.
	if acc < 0.08 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestMarkovPredictorDeterministicTieBreak(t *testing.T) {
	m := NewMarkovPredictor(1)
	m.Observe("a", "x")
	m.Observe("a", "y")
	p1, _ := m.Predict("a")
	p2, _ := m.Predict("a")
	if p1 != p2 || p1 != "x" { // lexicographic tie-break
		t.Fatalf("tie break: %v %v", p1, p2)
	}
	if _, ok := m.Predict("unknown"); ok {
		t.Fatal("unknown context should be !ok")
	}
}

func TestDecayTracksDrift(t *testing.T) {
	// Behaviour drifts: first phase a->x, second phase a->y. A decayed
	// model should adapt; an undecayed one stays stuck on x because the
	// first phase is longer.
	decayed := NewMarkovPredictor(0.9)
	static := NewMarkovPredictor(1)
	for i := 0; i < 200; i++ {
		decayed.Observe("a", "x")
		static.Observe("a", "x")
	}
	for i := 0; i < 80; i++ {
		decayed.Observe("a", "y")
		static.Observe("a", "y")
	}
	dp, _ := decayed.Predict("a")
	sp, _ := static.Predict("a")
	if dp != "y" {
		t.Fatalf("decayed model did not adapt: %v", dp)
	}
	if sp != "x" {
		t.Fatalf("static model unexpectedly adapted: %v", sp)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := NewMarkovPredictor(1)
	if m.Accuracy(nil) != 0 {
		t.Fatal("empty accuracy")
	}
}

func TestInferVolumesImproves(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	rng := rand.New(rand.NewSource(2))
	truthGrid := NewVolumeGrid(bounds, 10, 10)
	observedGrid := NewVolumeGrid(bounds, 10, 10)
	const rate = 0.2
	// Smooth true demand: dense in a hot band, sparse elsewhere.
	for i := 0; i < 40000; i++ {
		var p geo.Point
		if rng.Float64() < 0.7 {
			p = geo.Pt(rng.Float64()*1000, 300+rng.NormFloat64()*120)
		} else {
			p = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		truthGrid.Add(p)
		if rng.Float64() < rate {
			observedGrid.Add(p)
		}
	}
	truth := truthGrid.Counts()
	naive := observedGrid.InferVolumes(rate, 0)
	smoothed := observedGrid.InferVolumes(rate, 1)
	if MAE(smoothed, truth) >= MAE(naive, truth) {
		t.Fatalf("smoothing did not help: naive %v smoothed %v",
			MAE(naive, truth), MAE(smoothed, truth))
	}
	// Scaling matters: unscaled counts are far off.
	raw := observedGrid.Counts()
	if MAE(raw, truth) <= MAE(naive, truth) {
		t.Fatal("penetration-rate scaling should dominate raw counts")
	}
}

func TestVolumeGridDegenerate(t *testing.T) {
	g := NewVolumeGrid(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}, 0, 0)
	g.Add(geo.Pt(-5, 50)) // clamps
	if got := g.InferVolumes(0, -1); got[0] != 1 {
		t.Fatalf("degenerate inference: %v", got)
	}
	if !math.IsInf(MAE([]float64{1}, []float64{1, 2}), 1) {
		t.Fatal("MAE length mismatch")
	}
}

func TestRecommenderHitRate(t *testing.T) {
	_, events := simulate.CheckIns(simulate.CheckInOptions{
		NumPOIs: 20, NumUsers: 8, VisitsEach: 50, Uncertainty: 0.3, Seed: 3,
	})
	rec := NewRecommender(0.2)
	cut := len(events) * 3 / 4
	for _, e := range events[:cut] {
		var visit UncertainVisit
		for _, c := range e.Candidates {
			visit = append(visit, POIProb{POI: c.POI, Prob: c.Prob})
		}
		rec.Observe(e.UserID, visit)
	}
	var tests []struct {
		User string
		POI  string
	}
	for _, e := range events[cut:] {
		tests = append(tests, struct {
			User string
			POI  string
		}{e.UserID, e.TruePOI})
	}
	hr := rec.HitRate(tests, 5)
	// Top-5 of 20 POIs at random would hit 25%; habits should beat it.
	if hr < 0.3 {
		t.Fatalf("hit rate = %v", hr)
	}
}

func TestRecommendExcludes(t *testing.T) {
	rec := NewRecommender(0)
	rec.Observe("u", UncertainVisit{{POI: "a", Prob: 1}})
	rec.Observe("u", UncertainVisit{{POI: "b", Prob: 0.5}})
	top := rec.Recommend("u", 5, map[string]bool{"a": true})
	for _, s := range top {
		if s.POI == "a" {
			t.Fatal("excluded poi recommended")
		}
	}
	if rec.Recommend("u", 0, nil) != nil {
		t.Fatal("k=0")
	}
	if got := rec.HitRate(nil, 3); got != 0 {
		t.Fatal("empty hit rate")
	}
}

func TestAssignTasksDQAwareBeatsBlind(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 30
	workers := make([]Worker, n)
	truePos := map[string]geo.Point{}
	for i := range workers {
		truth := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		// Half the fleet has very poor positioning.
		sigma := 5.0
		if i%2 == 0 {
			sigma = 150
		}
		workers[i] = Worker{
			ID:       fmt.Sprintf("w%d", i),
			Reported: truth.Add(geo.Pt(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)),
			Sigma:    sigma,
		}
		truePos[workers[i].ID] = truth
	}
	tasks := make([]Task, 15)
	for i := range tasks {
		tasks[i] = Task{
			ID:       fmt.Sprintf("t%d", i),
			Pos:      geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Reward:   1,
			MaxRange: 250,
		}
	}
	var awareTotal, blindTotal float64
	for trial := 0; trial < 20; trial++ {
		// Re-noise the reports each trial for stability.
		for i := range workers {
			workers[i].Reported = truePos[workers[i].ID].Add(
				geo.Pt(rng.NormFloat64()*workers[i].Sigma, rng.NormFloat64()*workers[i].Sigma))
		}
		aware := AssignTasks(workers, tasks, true)
		blind := AssignTasks(workers, tasks, false)
		awareTotal += RealizedUtility(aware, workers, truePos, tasks)
		blindTotal += RealizedUtility(blind, workers, truePos, tasks)
	}
	if awareTotal <= blindTotal {
		t.Fatalf("DQ-aware (%v) should beat DQ-blind (%v)", awareTotal, blindTotal)
	}
}

func TestAssignTasksOneToOne(t *testing.T) {
	workers := []Worker{
		{ID: "w1", Reported: geo.Pt(0, 0), Sigma: 1},
		{ID: "w2", Reported: geo.Pt(10, 0), Sigma: 1},
	}
	tasks := []Task{
		{ID: "t1", Pos: geo.Pt(1, 0), Reward: 1, MaxRange: 100},
		{ID: "t2", Pos: geo.Pt(11, 0), Reward: 1, MaxRange: 100},
		{ID: "t3", Pos: geo.Pt(500, 500), Reward: 1, MaxRange: 10}, // unreachable
	}
	as := AssignTasks(workers, tasks, true)
	if len(as) != 2 {
		t.Fatalf("assignments = %d", len(as))
	}
	seenW := map[string]bool{}
	seenT := map[string]bool{}
	for _, a := range as {
		if seenW[a.Worker] || seenT[a.Task] {
			t.Fatal("not one-to-one")
		}
		seenW[a.Worker] = true
		seenT[a.Task] = true
		if a.Task == "t3" {
			t.Fatal("unreachable task assigned")
		}
	}
}
