package decide

import (
	"math/rand"
	"testing"

	"sidq/internal/geo"
)

// federatedScenario splits one city's probe stream across k companies
// with different market shares; the true volume grid is returned for
// scoring.
func federatedScenario(k int, seed int64) (truth []float64, nodes []*VolumeGrid, rates []float64) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	rng := rand.New(rand.NewSource(seed))
	truthGrid := NewVolumeGrid(bounds, 8, 8)
	nodes = make([]*VolumeGrid, k)
	rates = make([]float64, k)
	var rateSum float64
	for i := range nodes {
		nodes[i] = NewVolumeGrid(bounds, 8, 8)
		rates[i] = 0.05 + rng.Float64()*0.15
		rateSum += rates[i]
	}
	for i := 0; i < 30000; i++ {
		var p geo.Point
		if rng.Float64() < 0.7 {
			p = geo.Pt(rng.Float64()*1000, 300+rng.NormFloat64()*120)
		} else {
			p = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		truthGrid.Add(p)
		r := rng.Float64()
		acc := 0.0
		for j := range nodes {
			acc += rates[j]
			if r < acc {
				nodes[j].Add(p)
				break
			}
		}
		_ = rateSum
	}
	return truthGrid.Counts(), nodes, rates
}

func TestFederatedAveragingApproachesCentralized(t *testing.T) {
	truth, nodes, rates := federatedScenario(5, 1)
	fed := NewFederatedVolume(64)
	var updates []LocalUpdate
	for i, g := range nodes {
		updates = append(updates, LocalEstimate(g, rates[i], 1))
	}
	if err := fed.Aggregate(updates); err != nil {
		t.Fatal(err)
	}
	global := fed.Global()
	// The federated model must beat every single node's local estimate.
	fedErr := MAE(global, truth)
	for i, g := range nodes {
		if local := MAE(g.InferVolumes(rates[i], 1), truth); local < fedErr {
			t.Fatalf("node %d local MAE %v beats federated %v", i, local, fedErr)
		}
	}
}

func TestFederatedShapeMismatchAndEmpty(t *testing.T) {
	fed := NewFederatedVolume(4)
	if err := fed.Aggregate([]LocalUpdate{{Estimate: []float64{1, 2}, Samples: 5}}); err != ErrShapeMismatch {
		t.Fatalf("want ErrShapeMismatch, got %v", err)
	}
	for _, v := range fed.Global() {
		if v != 0 {
			t.Fatal("empty model should be zero")
		}
	}
	// Zero-sample updates are ignored, not divided by.
	if err := fed.Aggregate([]LocalUpdate{{Estimate: make([]float64, 4), Samples: 0}}); err != nil {
		t.Fatal(err)
	}
	for _, v := range fed.Global() {
		if v != 0 {
			t.Fatal("zero-sample update should not move the model")
		}
	}
}

func TestFederatedWeightsBySamples(t *testing.T) {
	fed := NewFederatedVolume(1)
	err := fed.Aggregate([]LocalUpdate{
		{Estimate: []float64{10}, Samples: 90},
		{Estimate: []float64{20}, Samples: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fed.Global()[0]
	if got < 10.9 || got > 11.1 { // 0.9*10 + 0.1*20 = 11
		t.Fatalf("weighted average = %v", got)
	}
}
