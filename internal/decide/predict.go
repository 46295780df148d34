// Package decide implements the paper's §2.3.3: decision-making over
// low-quality SID. It provides next-location prediction with
// incremental (drift-tracking) Markov models, traffic-volume inference
// from incomplete probe trajectories, POI recommendation under
// uncertain check-ins, and data-quality-aware spatial task assignment.
// Each component addresses one of the DQ issue groups the tutorial
// organizes the literature by (incompleteness, uncertainty, dynamics,
// DQ-awareness).
package decide

import (
	"sort"
)

// MarkovPredictor is an order-1 Markov next-symbol model with optional
// exponential decay, which lets it track drifting behaviour (the
// incremental-learning requirement of dynamic SID).
type MarkovPredictor struct {
	counts map[string]map[string]float64
	decay  float64 // multiplier applied to old counts on each update (1 = none)
}

// NewMarkovPredictor returns a predictor; decay in (0, 1] discounts old
// transitions on every observation (1 disables discounting).
func NewMarkovPredictor(decay float64) *MarkovPredictor {
	if decay <= 0 || decay > 1 {
		decay = 1
	}
	return &MarkovPredictor{counts: map[string]map[string]float64{}, decay: decay}
}

// Observe records a transition from -> to.
func (m *MarkovPredictor) Observe(from, to string) {
	row, ok := m.counts[from]
	if !ok {
		row = map[string]float64{}
		m.counts[from] = row
	}
	if m.decay < 1 {
		for k := range row {
			row[k] *= m.decay
		}
	}
	row[to]++
}

// Train folds in whole symbol sequences.
func (m *MarkovPredictor) Train(sequences [][]string) {
	for _, seq := range sequences {
		for i := 1; i < len(seq); i++ {
			m.Observe(seq[i-1], seq[i])
		}
	}
}

// Predict returns the most likely next symbol after from; ok is false
// when the context was never seen.
func (m *MarkovPredictor) Predict(from string) (string, bool) {
	row, ok := m.counts[from]
	if !ok || len(row) == 0 {
		return "", false
	}
	best, bestN := "", -1.0
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic tie-break
	for _, k := range keys {
		if row[k] > bestN {
			best, bestN = k, row[k]
		}
	}
	return best, true
}

// Accuracy evaluates next-symbol prediction over test sequences.
func (m *MarkovPredictor) Accuracy(sequences [][]string) float64 {
	correct, total := 0, 0
	for _, seq := range sequences {
		for i := 1; i < len(seq); i++ {
			pred, ok := m.Predict(seq[i-1])
			if !ok {
				continue
			}
			total++
			if pred == seq[i] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
