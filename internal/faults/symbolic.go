// Package faults implements the paper's §2.2.4 Fault Correction task
// family: finding and repairing wrong, conflicting, or missing values.
//
// Three method groups are provided, mirroring the tutorial:
//   - symbolic-trajectory cleansing for RFID-style tracking: rule-based
//     conflict resolution, smoothing-window imputation of false
//     negatives, and an HMM (Viterbi) probabilistic cleanser covering
//     both false positives and false negatives;
//   - timestamp repair under temporal (gap) constraints;
//   - thematic value repair by spatiotemporal neighborhood consensus.
package faults

import (
	"math"

	"sidq/internal/geo"
)

// ReaderInfo describes one proximity sensor in a deployment.
type ReaderInfo struct {
	ID    string
	Pos   geo.Point
	Range float64
}

// Deployment is the static context symbolic cleansing needs: the
// readers, the detection epoch, and the object's maximum speed.
type Deployment struct {
	Readers  []ReaderInfo
	Epoch    float64 // epoch length in seconds
	MaxSpeed float64 // object speed bound, m/s
}

// None is the symbolic label for "covered by no reader".
const None = ""

// ResolveConflicts performs rule-based false-positive removal: at each
// epoch with multiple detections it keeps the reader that is
// travel-feasible from the previously accepted reader (within
// MaxSpeed * elapsed), preferring the nearest such reader. Epochs with
// no detection keep the None label. This is the constraint-based
// cleansing rule.
func (d Deployment) ResolveConflicts(times []float64, obs map[float64][]string) map[float64]string {
	pos := d.readerPositions()
	out := make(map[float64]string, len(times))
	prev := None
	prevT := math.Inf(-1)
	for _, t := range times {
		cands := obs[t]
		switch {
		case len(cands) == 0:
			out[t] = None
		case len(cands) == 1:
			out[t] = cands[0]
			prev, prevT = cands[0], t
		default:
			best := None
			bestD := math.Inf(1)
			for _, c := range cands {
				cp, ok := pos[c]
				if !ok {
					continue
				}
				if prev != None {
					pp := pos[prev]
					limit := d.MaxSpeed * (t - prevT)
					if d.MaxSpeed > 0 && cp.Dist(pp) > limit+1e-9 {
						continue // unreachable: cross-read
					}
					if dd := cp.Dist(pp); dd < bestD {
						best, bestD = c, dd
					}
				} else if bestD == math.Inf(1) {
					best, bestD = c, 0
				}
			}
			if best == None && len(cands) > 0 {
				best = cands[0]
			}
			out[t] = best
			prev, prevT = best, t
		}
	}
	return out
}

// SmoothImpute fills None epochs (false negatives) between two epochs
// labeled with the same or adjacent readers: gaps up to maxGap epochs
// are interpolated by assigning each missing epoch the nearer of the
// two bracketing readers (by time). This is the smoothing-window
// imputation of the RFID cleansing literature.
func (d Deployment) SmoothImpute(times []float64, labels map[float64]string, maxGap int) map[float64]string {
	out := make(map[float64]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	i := 0
	for i < len(times) {
		if out[times[i]] != None {
			i++
			continue
		}
		// Find the gap [i, j).
		j := i
		for j < len(times) && out[times[j]] == None {
			j++
		}
		gapLen := j - i
		if i > 0 && j < len(times) && gapLen <= maxGap {
			left := out[times[i-1]]
			right := out[times[j]]
			for k := i; k < j; k++ {
				// Assign by temporal proximity.
				if times[k]-times[i-1] <= times[j]-times[k] {
					out[times[k]] = left
				} else {
					out[times[k]] = right
				}
			}
		}
		i = j
	}
	return out
}

// HMMClean is the probabilistic cleanser: a hidden Markov model whose
// states are the readers plus None, with travel-feasibility transitions
// and an emission model parameterized by the deployment's false
// negative and false positive rates. Viterbi decoding yields the most
// likely true reader sequence, repairing both FPs and FNs jointly.
func (d Deployment) HMMClean(times []float64, obs map[float64][]string, fnRate, fpRate float64) map[float64]string {
	states := make([]string, 0, len(d.Readers)+1)
	states = append(states, None)
	for _, r := range d.Readers {
		states = append(states, r.ID)
	}
	pos := d.readerPositions()
	fnRate = clampProb(fnRate, 0.05)
	fpRate = clampProb(fpRate, 0.01)

	n := len(times)
	if n == 0 {
		return map[float64]string{}
	}
	logp := make([][]float64, n)
	back := make([][]int, n)
	for i := range logp {
		logp[i] = make([]float64, len(states))
		back[i] = make([]int, len(states))
	}
	emit := func(t float64, state string) float64 {
		seen := map[string]bool{}
		for _, r := range obs[t] {
			seen[r] = true
		}
		lp := 0.0
		for _, r := range d.Readers {
			isState := r.ID == state
			detected := seen[r.ID]
			switch {
			case isState && detected:
				lp += math.Log(1 - fnRate)
			case isState && !detected:
				lp += math.Log(fnRate)
			case !isState && detected:
				lp += math.Log(fpRate)
			default:
				lp += math.Log(1 - fpRate)
			}
		}
		return lp
	}
	trans := func(from, to string, dt float64) float64 {
		// Dwell times in a reader zone span several epochs, so
		// self-transitions dominate; switching to a travel-feasible
		// neighbor (or the uncovered gap between zones) is rarer.
		if from == to {
			return math.Log(0.8)
		}
		if from == None || to == None {
			return math.Log(0.1)
		}
		limit := d.MaxSpeed * dt
		if d.MaxSpeed > 0 && pos[from].Dist(pos[to]) > limit+1e-9 {
			return math.Inf(-1) // infeasible jump
		}
		return math.Log(0.1)
	}
	for s, state := range states {
		logp[0][s] = emit(times[0], state)
	}
	for i := 1; i < n; i++ {
		dt := times[i] - times[i-1]
		for s, state := range states {
			best, bestK := math.Inf(-1), 0
			for k, prev := range states {
				if v := logp[i-1][k] + trans(prev, state, dt); v > best {
					best, bestK = v, k
				}
			}
			logp[i][s] = best + emit(times[i], state)
			back[i][s] = bestK
		}
	}
	bestS, bestV := 0, math.Inf(-1)
	for s, v := range logp[n-1] {
		if v > bestV {
			bestS, bestV = s, v
		}
	}
	out := make(map[float64]string, n)
	s := bestS
	for i := n - 1; i >= 0; i-- {
		out[times[i]] = states[s]
		s = back[i][s]
	}
	return out
}

func (d Deployment) readerPositions() map[string]geo.Point {
	pos := make(map[string]geo.Point, len(d.Readers))
	for _, r := range d.Readers {
		pos[r.ID] = r.Pos
	}
	return pos
}

func clampProb(p, def float64) float64 {
	if p <= 0 || p >= 1 {
		return def
	}
	return p
}

// SequenceAccuracy returns the fraction of epochs where got matches
// want, over the union of epoch keys.
func SequenceAccuracy(got, want map[float64]string) float64 {
	keys := map[float64]bool{}
	for t := range got {
		keys[t] = true
	}
	for t := range want {
		keys[t] = true
	}
	if len(keys) == 0 {
		return 1
	}
	ok := 0
	for t := range keys {
		if got[t] == want[t] {
			ok++
		}
	}
	return float64(ok) / float64(len(keys))
}
