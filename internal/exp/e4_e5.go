package exp

import (
	"math"

	"sidq/internal/faults"
	"sidq/internal/geo"
	"sidq/internal/outlier"
	"sidq/internal/simulate"
)

// E4 scores the trajectory and STID outlier detectors across injected
// outlier rates.
func E4(seed int64) Table {
	t := Table{
		ID:    "E4",
		Title: "outlier removal: F1 vs injected outlier rate",
		Cols:  []string{"rate", "constraint F1", "statistics F1", "prediction F1", "STID temporal F1", "STID spatial F1", "STID s-t F1"},
		Notes: []string{"trajectory: 600-pt walks, σ=2 noise, 150 m spikes; STID: 30 sensors, 60-unit spikes"},
	}
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(2000, 2000)}
	f := simulate.NewField(simulate.FieldOptions{Seed: seed})
	for _, rate := range []float64{0.02, 0.05, 0.1, 0.2} {
		truth := simulate.RandomWalk("w", region, 600, 3, 1, seed+1)
		noisy := simulate.AddGaussianNoise(truth, 2, seed+2)
		corrupted, flags := simulate.InjectOutliers(noisy, rate, 150, seed+3)
		cF1 := outlier.Evaluate(outlier.SpeedConstraint(corrupted.Points, 15, nil), flags).F1()
		sF1 := outlier.Evaluate(outlier.Statistical(corrupted.Points, outlier.StatisticalOptions{}, nil), flags).F1()
		_, pFlags := outlier.Prediction(corrupted, outlier.PredictionOptions{MeasNoise: 4, Threshold: 6})
		pF1 := outlier.Evaluate(pFlags, flags).F1()

		_, readings := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
			NumSensors: 30, Interval: 300, Duration: 7200, NoiseSigma: 1, Seed: seed + 4,
		})
		rCorrupted, rFlags := simulate.InjectValueOutliers(readings, rate, 60, seed+5)
		tF1 := outlier.Evaluate(outlier.Temporal(rCorrupted, outlier.TemporalOptions{}), rFlags).F1()
		spF1 := outlier.Evaluate(outlier.Spatial(rCorrupted, outlier.SpatialOptions{Neighbors: 6, TimeWindow: 10}), rFlags).F1()
		stF1 := outlier.Evaluate(outlier.SpatioTemporal(rCorrupted, outlier.TemporalOptions{}, outlier.SpatialOptions{Neighbors: 6, TimeWindow: 10}), rFlags).F1()
		t.AddRow(F(rate), F(cF1), F(sF1), F(pF1), F(tF1), F(spF1), F(stF1))
	}
	return t
}

// E5 scores symbolic-trajectory fault correction and timestamp repair
// across fault rates.
func E5(seed int64) Table {
	t := Table{
		ID:    "E5",
		Title: "fault correction: epoch accuracy vs FN/FP rates; timestamp repair",
		Cols:  []string{"FN rate", "FP rate", "raw acc", "rules acc", "HMM acc", "ts err before", "ts err after"},
		Notes: []string{"12-reader corridor; rules = conflict resolution + smoothing impute; ts = jittered 2 s clock"},
	}
	for _, rates := range [][2]float64{{0.1, 0.02}, {0.2, 0.05}, {0.3, 0.1}, {0.4, 0.15}} {
		fn, fp := rates[0], rates[1]
		w := simulate.Symbolic("obj", simulate.SymbolicOptions{
			NumReaders: 12, Spacing: 20, Range: 8, Epoch: 1, Speed: 2,
			FalseNeg: fn, FalsePos: fp, Seed: seed,
		})
		dep := faults.Deployment{Epoch: 1, MaxSpeed: 6}
		for _, r := range w.Readers {
			dep.Readers = append(dep.Readers, faults.ReaderInfo{ID: r.ID, Pos: r.Pos, Range: r.Range})
		}
		obs := map[float64][]string{}
		for _, e := range w.Epochs {
			obs[e] = nil
		}
		for _, d := range w.Detections {
			obs[d.T] = append(obs[d.T], d.ReaderID)
		}
		raw := rawSymbolicAccuracy(w.Epochs, obs, w.Truth)
		rules := dep.SmoothImpute(w.Epochs, dep.ResolveConflicts(w.Epochs, obs), 5)
		rulesAcc := faults.SequenceAccuracy(rules, w.Truth)
		hmm := dep.HMMClean(w.Epochs, obs, fn, fp)
		hmmAcc := faults.SequenceAccuracy(hmm, w.Truth)

		// Timestamp repair: 2 s clock with jitter and gross errors.
		n := 200
		truthTs := make([]float64, n)
		obsTs := make([]float64, n)
		for i := range truthTs {
			truthTs[i] = float64(i) * 2
			obsTs[i] = truthTs[i]
		}
		// Gross errors scale with the FN rate to form a sweep.
		gross := int(fn * 40)
		for g := 0; g < gross; g++ {
			idx := 10 + g*4
			if idx < n {
				obsTs[idx] += 25
			}
		}
		repaired, err := faults.RepairTimestamps(obsTs, 1, 3)
		before, after := 0.0, 0.0
		if err == nil {
			for i := range truthTs {
				before += math.Abs(obsTs[i] - truthTs[i])
				after += math.Abs(repaired[i] - truthTs[i])
			}
			before /= float64(n)
			after /= float64(n)
		}
		t.AddRow(F(fn), F(fp), F(raw), F(rulesAcc), F(hmmAcc), F(before), F(after))
	}
	return t
}

func rawSymbolicAccuracy(epochs []float64, obs map[float64][]string, truth map[float64]string) float64 {
	ok := 0
	for _, t := range epochs {
		rs := obs[t]
		if len(rs) == 1 && rs[0] == truth[t] {
			ok++
		} else if len(rs) == 0 && truth[t] == faults.None {
			ok++
		}
	}
	if len(epochs) == 0 {
		return 1
	}
	return float64(ok) / float64(len(epochs))
}
