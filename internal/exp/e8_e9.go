package exp

import (
	"fmt"
	"math/rand"
	"time"

	"sidq/internal/geo"
	"sidq/internal/uquery"
)

// E8 evaluates probabilistic queries over uncertain objects across
// uncertainty levels: range precision/recall vs ground truth, pruning
// effectiveness, kNN overlap with the true neighbors, and
// between-sample inference agreement (prism vs Markov grid).
func E8(seed int64) Table {
	t := Table{
		ID:    "E8",
		Title: "uncertain queries: quality and pruning vs location uncertainty",
		Cols:  []string{"σ (m)", "range P", "range R", "pruned frac", "kNN overlap", "prism⊆markov"},
		Notes: []string{"500 Gaussian objects; threshold 0.5; kNN k=10 vs true positions; prism/markov on a 2-fix gap"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, sigma := range []float64{2, 5, 15, 40} {
		objs := make([]uquery.UncertainObject, 500)
		truth := make([]geo.Point, 500)
		for i := range objs {
			truth[i] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
			mean := truth[i].Add(geo.Pt(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma))
			objs[i] = uquery.GaussianObject{ID: fmt.Sprintf("o%d", i), Mean: mean, Sigma: sigma}
		}
		rect := geo.RectFromCenter(geo.Pt(500, 500), 150, 150)
		res, st := uquery.ProbRange(objs, rect, 0.5)
		inTruth := map[string]bool{}
		total := 0
		for i, p := range truth {
			if rect.Contains(p) {
				inTruth[fmt.Sprintf("o%d", i)] = true
				total++
			}
		}
		hits := 0
		for _, r := range res {
			if inTruth[r.ID] {
				hits++
			}
		}
		prec, rec := 1.0, 1.0
		if len(res) > 0 {
			prec = float64(hits) / float64(len(res))
		}
		if total > 0 {
			rec = float64(hits) / float64(total)
		}
		prunedFrac := float64(st.Pruned) / float64(st.Candidates)

		// kNN overlap with true nearest neighbors.
		q := geo.Pt(500, 500)
		knn, _ := uquery.ProbKNN(objs, q, 10)
		trueKNN := map[string]bool{}
		type dv struct {
			id string
			d  float64
		}
		var all []dv
		for i, p := range truth {
			all = append(all, dv{fmt.Sprintf("o%d", i), p.Dist(q)})
		}
		for i := 0; i < 10; i++ {
			min := i
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[min].d {
					min = j
				}
			}
			all[i], all[min] = all[min], all[i]
			trueKNN[all[i].id] = true
		}
		overlap := 0
		for _, r := range knn {
			if trueKNN[r.ID] {
				overlap++
			}
		}

		// Between-sample agreement: every cell the prism admits should
		// carry Markov mass, and high-mass Markov cells should be inside
		// the prism (checked as containment fraction).
		pr := uquery.Prism{P1: geo.Pt(100, 500), P2: geo.Pt(900, 500), T1: 0, T2: 80, VMax: 20}
		mg := uquery.NewMarkovGrid(geo.Rect{Min: geo.Pt(0, 200), Max: geo.Pt(1000, 800)}, 25)
		dist := mg.Between(pr.P1, pr.T1, pr.P2, pr.T2, 4, 40)
		inside, massInside := 0.0, 0.0
		var totalMass float64
		for cy := 0; cy < 600/25; cy++ {
			for cx := 0; cx < 1000/25; cx++ {
				c := geo.Pt(float64(cx)*25+12.5, 200+float64(cy)*25+12.5)
				m := dist[cy*(1000/25)+cx]
				totalMass += m
				if pr.PossibleAt(c, 40) {
					inside++
					massInside += m
				}
			}
		}
		agreement := 0.0
		if totalMass > 0 {
			agreement = massInside / totalMass
		}
		t.AddRow(F1(sigma), F(prec), F(rec), F(prunedFrac), F(float64(overlap)/10), F(agreement))
	}
	return t
}

// E9 measures the dynamics-side machinery: safe-region communication
// savings, stream query late-drop handling, and distributed range-query
// throughput scaling with workers.
func E9(seed int64) Table {
	t := Table{
		ID:    "E9",
		Title: "dynamics: safe-region savings, stream lateness, distributed scaling",
		Cols:  []string{"workers", "dist insert+query ms", "speedup", "safe-region savings", "stream late frac"},
		Notes: []string{"20k points, 30 queries; savings over 100 ticks x 50 objects; stream: 10% disorder at 2x lateness"},
	}
	// Safe-region savings (worker-independent; computed once).
	query := geo.Rect{Min: geo.Pt(400, 400), Max: geo.Pt(600, 600)}
	mon := uquery.NewSafeRegionMonitor(query)
	rng := rand.New(rand.NewSource(seed))
	type obj struct {
		id  string
		pos geo.Point
	}
	objs := make([]obj, 50)
	for i := range objs {
		objs[i] = obj{fmt.Sprintf("o%d", i), geo.Pt(rng.Float64()*1000, rng.Float64()*1000)}
	}
	for tick := 0; tick < 100; tick++ {
		for i := range objs {
			objs[i].pos = objs[i].pos.Add(geo.Pt(rng.NormFloat64()*3, rng.NormFloat64()*3))
			mon.Update(objs[i].id, objs[i].pos)
		}
	}
	savings, _, _ := mon.Savings()

	// Stream lateness (also worker-independent).
	counter := uquery.NewStreamRangeCounter(query, 10, 5)
	late := 0
	totalEvents := 0
	base := 0.0
	for i := 0; i < 5000; i++ {
		base += 0.1
		tm := base
		if rng.Float64() < 0.1 {
			tm -= 8 + rng.Float64()*8 // some beyond the 5 s lateness
		}
		counter.Push(tm, uquery.PointEvent{ID: fmt.Sprintf("e%d", i), Pos: geo.Pt(500, 500)})
		totalEvents++
	}
	counter.Flush()
	late = counter.Late()
	lateFrac := float64(late) / float64(totalEvents)

	// Distributed scaling.
	entries := make([]uquery.PointEvent, 20000)
	for i := range entries {
		entries[i] = uquery.PointEvent{
			ID:  fmt.Sprintf("p%05d", i),
			Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
		}
	}
	var baseMs float64
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		store := uquery.NewDistStore(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 8, 8, workers)
		if err := store.InsertBatch(entries); err != nil {
			store.Close()
			continue
		}
		qrng := rand.New(rand.NewSource(seed + int64(workers)))
		for q := 0; q < 30; q++ {
			rect := geo.RectFromCenter(
				geo.Pt(qrng.Float64()*1000, qrng.Float64()*1000), 150, 150)
			if _, err := store.Range(rect); err != nil {
				break
			}
		}
		store.Close()
		ms := float64(time.Since(start).Microseconds()) / 1000
		if workers == 1 {
			baseMs = ms
		}
		speedup := 0.0
		if ms > 0 {
			speedup = baseMs / ms
		}
		t.AddRow(I(workers), F1(ms), F(speedup), F(savings), F(lateFrac))
	}
	return t
}
