package faults

import (
	"math"
	"sort"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/stid"
)

// world builds a symbolic tracking scenario from the simulator and
// converts it to the faults package's types.
func world(t *testing.T, fn, fp float64, seed int64) (Deployment, []float64, map[float64][]string, map[float64]string) {
	t.Helper()
	w := simulate.Symbolic("obj", simulate.SymbolicOptions{
		NumReaders: 12, Spacing: 20, Range: 8, Epoch: 1, Speed: 2,
		FalseNeg: fn, FalsePos: fp, Seed: seed,
	})
	dep := Deployment{Epoch: 1, MaxSpeed: 6}
	for _, r := range w.Readers {
		dep.Readers = append(dep.Readers, ReaderInfo{ID: r.ID, Pos: r.Pos, Range: r.Range})
	}
	// Readers seen per epoch, silent epochs included so FNs are visible
	// to the cleaners.
	obs := map[float64][]string{}
	for _, e := range w.Epochs {
		obs[e] = nil
	}
	for _, d := range w.Detections {
		obs[d.T] = append(obs[d.T], d.ReaderID)
	}
	for _, rs := range obs {
		sort.Strings(rs)
	}
	return dep, w.Epochs, obs, w.Truth
}

// rawAccuracy scores the uncleaned observations: an epoch is correct if
// exactly the true reader was seen.
func rawAccuracy(epochs []float64, obs map[float64][]string, truth map[float64]string) float64 {
	ok := 0
	for _, t := range epochs {
		rs := obs[t]
		if len(rs) == 1 && rs[0] == truth[t] {
			ok++
		} else if len(rs) == 0 && truth[t] == None {
			ok++
		}
	}
	return float64(ok) / float64(len(epochs))
}

func TestResolveConflictsRemovesCrossReads(t *testing.T) {
	dep, epochs, obs, truth := world(t, 0, 0.3, 1)
	labels := dep.ResolveConflicts(epochs, obs)
	acc := SequenceAccuracy(labels, truth)
	raw := rawAccuracy(epochs, obs, truth)
	if acc <= raw {
		t.Fatalf("conflict resolution did not improve: raw %v cleaned %v", raw, acc)
	}
	if acc < 0.7 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestSmoothImputeFillsFalseNegatives(t *testing.T) {
	dep, epochs, obs, truth := world(t, 0.35, 0, 2)
	labels := dep.ResolveConflicts(epochs, obs)
	before := SequenceAccuracy(labels, truth)
	imputed := dep.SmoothImpute(epochs, labels, 5)
	after := SequenceAccuracy(imputed, truth)
	if after <= before {
		t.Fatalf("imputation did not improve: %v -> %v", before, after)
	}
}

func TestSmoothImputeRespectsMaxGap(t *testing.T) {
	dep := Deployment{Epoch: 1, MaxSpeed: 5, Readers: []ReaderInfo{
		{ID: "r0", Pos: geo.Pt(0, 0), Range: 5},
		{ID: "r1", Pos: geo.Pt(10, 0), Range: 5},
	}}
	times := []float64{0, 1, 2, 3, 4, 5}
	labels := map[float64]string{0: "r0", 1: None, 2: None, 3: None, 4: None, 5: "r1"}
	out := dep.SmoothImpute(times, labels, 2) // gap of 4 > maxGap 2
	for _, tm := range times[1:5] {
		if out[tm] != None {
			t.Fatalf("gap beyond maxGap was imputed at %v", tm)
		}
	}
	out = dep.SmoothImpute(times, labels, 4)
	if out[1] != "r0" || out[4] != "r1" {
		t.Fatalf("imputation by proximity: %v", out)
	}
}

func TestHMMCleanBeatsRawUnderBothFaults(t *testing.T) {
	dep, epochs, obs, truth := world(t, 0.25, 0.08, 3)
	cleaned := dep.HMMClean(epochs, obs, 0.25, 0.08)
	acc := SequenceAccuracy(cleaned, truth)
	raw := rawAccuracy(epochs, obs, truth)
	if acc <= raw {
		t.Fatalf("HMM did not improve: raw %v cleaned %v", raw, acc)
	}
	if acc < 0.8 {
		t.Fatalf("HMM accuracy = %v", acc)
	}
}

func TestHMMCleanBeatsRules(t *testing.T) {
	dep, epochs, obs, truth := world(t, 0.25, 0.08, 4)
	rules := dep.SmoothImpute(epochs, dep.ResolveConflicts(epochs, obs), 5)
	hmm := dep.HMMClean(epochs, obs, 0.25, 0.08)
	if SequenceAccuracy(hmm, truth) < SequenceAccuracy(rules, truth)-0.05 {
		t.Fatalf("HMM (%v) much worse than rules (%v)",
			SequenceAccuracy(hmm, truth), SequenceAccuracy(rules, truth))
	}
}

func TestHMMCleanEmpty(t *testing.T) {
	dep := Deployment{Epoch: 1}
	if got := dep.HMMClean(nil, nil, 0.1, 0.1); len(got) != 0 {
		t.Fatal("empty HMM clean")
	}
}

func TestSequenceAccuracy(t *testing.T) {
	a := map[float64]string{0: "x", 1: "y"}
	b := map[float64]string{0: "x", 1: "z"}
	if got := SequenceAccuracy(a, b); got != 0.5 {
		t.Fatalf("accuracy = %v", got)
	}
	if SequenceAccuracy(nil, nil) != 1 {
		t.Fatal("empty accuracy")
	}
	// Asymmetric keys count against accuracy.
	c := map[float64]string{0: "x", 1: "y", 2: "w"}
	if got := SequenceAccuracy(a, c); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("asymmetric accuracy = %v", got)
	}
}

func TestTimestampViolationsAndRepair(t *testing.T) {
	ts := []float64{0, 1, 2, 2.1, 10, 11}
	v := timestampViolations(ts, 0.5, 3)
	if len(v) != 2 || v[0] != 3 || v[1] != 4 {
		t.Fatalf("violations = %v", v)
	}
	repaired, err := RepairTimestamps(ts, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := timestampViolations(repaired, 0.5, 3); len(got) != 0 {
		t.Fatalf("repair left violations: %v (%v)", got, repaired)
	}
}

func TestRepairTimestampsRecoversJitteredClock(t *testing.T) {
	// True clock ticks every 2 s; observed has bounded jitter plus two
	// gross errors.
	n := 100
	truth := make([]float64, n)
	obs := make([]float64, n)
	for i := range truth {
		truth[i] = float64(i) * 2
		obs[i] = truth[i]
	}
	obs[10] += 30  // gross future error
	obs[50] -= 25  // gross past error
	obs[70] += 0.4 // benign jitter within constraints
	repaired, err := RepairTimestamps(obs, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var rawErr, repErr float64
	for i := range truth {
		rawErr += math.Abs(obs[i] - truth[i])
		repErr += math.Abs(repaired[i] - truth[i])
	}
	if repErr >= rawErr {
		t.Fatalf("repair: raw %v -> repaired %v", rawErr, repErr)
	}
	// Benign jitter within constraints is untouched.
	if repaired[70] != obs[70] {
		t.Fatalf("benign jitter modified: %v", repaired[70])
	}
}

func TestRepairTimestampsInfeasible(t *testing.T) {
	if _, err := RepairTimestamps([]float64{0, 1}, 5, 3); err != ErrInfeasible {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	out, err := RepairTimestamps(nil, 0, 1)
	if err != nil || len(out) != 0 {
		t.Fatal("empty repair")
	}
}

func TestRepairThematic(t *testing.T) {
	f := simulate.NewField(simulate.FieldOptions{Seed: 5})
	_, readings := simulate.SensorNetwork(f, simulate.SensorNetworkOptions{
		NumSensors: 30, Interval: 300, Duration: 3600, NoiseSigma: 1, Seed: 6,
	})
	corrupted, flags := simulate.InjectValueOutliers(readings, 0.08, 80, 7)
	repaired, n := RepairThematic(corrupted, flags, 200, 600)
	if n == 0 {
		t.Fatal("nothing repaired")
	}
	errOf := func(rs []stid.Reading) float64 {
		var sum float64
		for _, r := range rs {
			sum += math.Abs(r.Value - f.Value(r.Pos, r.T))
		}
		return sum / float64(len(rs))
	}
	if errOf(repaired) >= errOf(corrupted)/2 {
		t.Fatalf("repair too weak: %v vs %v", errOf(repaired), errOf(corrupted))
	}
	// All-flagged input cannot repair (no clean neighbors) but must not panic.
	all := make([]bool, len(corrupted))
	for i := range all {
		all[i] = true
	}
	_, n2 := RepairThematic(corrupted, all, 200, 600)
	if n2 != 0 {
		t.Fatal("repair without clean data should do nothing")
	}
}
