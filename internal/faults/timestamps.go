package faults

import (
	"errors"
)

// ErrInfeasible is returned when no timestamp assignment can satisfy
// the gap constraints (e.g. maxGap < minGap).
var ErrInfeasible = errors.New("faults: infeasible timestamp constraints")

// RepairTimestamps repairs a timestamp sequence so consecutive gaps lie
// in [minGap, maxGap], staying close to the observed values. The repair
// follows the temporal-constraint cleaning approach: a forward pass
// derives the feasible interval of each timestamp given its repaired
// predecessor, and the observation is clamped into it (minimal change
// per step under the greedy order).
func RepairTimestamps(ts []float64, minGap, maxGap float64) ([]float64, error) {
	if maxGap < minGap {
		return nil, ErrInfeasible
	}
	out := make([]float64, len(ts))
	if len(ts) == 0 {
		return out, nil
	}
	// Anchor the start robustly: when the FIRST gap already violates
	// the constraints, the first timestamp itself may be the corrupted
	// one, so re-derive it from the median-implied start of the next
	// few observations. When the first gap is fine the anchor stays
	// put, which makes the repair the identity on feasible sequences
	// (and therefore idempotent).
	out[0] = ts[0]
	if len(ts) >= 3 {
		firstGap := ts[1] - ts[0]
		if firstGap < minGap-1e-12 || firstGap > maxGap+1e-12 {
			mid := (minGap + maxGap) / 2
			candidates := []float64{ts[0]}
			for i := 1; i < len(ts) && i <= 4; i++ {
				candidates = append(candidates, ts[i]-float64(i)*mid)
			}
			out[0] = median(candidates)
		}
	}
	for i := 1; i < len(ts); i++ {
		lo := out[i-1] + minGap
		hi := out[i-1] + maxGap
		switch {
		case ts[i] < lo:
			out[i] = lo
		case ts[i] > hi:
			out[i] = hi
		default:
			out[i] = ts[i]
		}
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
