package decide

import (
	"errors"
)

// ErrShapeMismatch is returned when federated updates disagree on
// model dimensions.
var ErrShapeMismatch = errors.New("decide: federated update shape mismatch")

// FederatedVolume coordinates privacy-preserving traffic-volume
// estimation across decentralized nodes, the paper's federated-learning
// trend (e.g. privacy-preserving traffic flow prediction): each edge
// node observes only its own probe trips and shares *model updates*
// (per-cell count vectors), never raw trajectories. The coordinator
// aggregates with federated averaging weighted by local sample counts.
type FederatedVolume struct {
	cells   int
	sum     []float64
	samples float64
}

// NewFederatedVolume returns a coordinator for models with the given
// cell count.
func NewFederatedVolume(cells int) *FederatedVolume {
	if cells < 1 {
		cells = 1
	}
	return &FederatedVolume{cells: cells, sum: make([]float64, cells)}
}

// LocalUpdate is a node's contribution: its locally-scaled volume
// estimate and how many observations back it.
type LocalUpdate struct {
	Estimate []float64
	Samples  float64
}

// LocalEstimate builds a node's update from its own grid and probe
// penetration rate — this runs on the node; only the result leaves it.
func LocalEstimate(g *VolumeGrid, penetrationRate, smoothing float64) LocalUpdate {
	counts := g.Counts()
	var n float64
	for _, c := range counts {
		n += c
	}
	return LocalUpdate{
		Estimate: g.InferVolumes(penetrationRate, smoothing),
		Samples:  n,
	}
}

// Aggregate folds node updates into the global model via federated
// averaging (weighted by sample counts).
func (f *FederatedVolume) Aggregate(updates []LocalUpdate) error {
	for _, u := range updates {
		if len(u.Estimate) != f.cells {
			return ErrShapeMismatch
		}
		if u.Samples <= 0 {
			continue
		}
		for i, v := range u.Estimate {
			f.sum[i] += v * u.Samples
		}
		f.samples += u.Samples
	}
	return nil
}

// Global returns the current global model (zeros before any data).
func (f *FederatedVolume) Global() []float64 {
	out := make([]float64, f.cells)
	if f.samples == 0 {
		return out
	}
	for i, s := range f.sum {
		out[i] = s / f.samples
	}
	return out
}
