package faults

import (
	"math"
	"testing"
	"testing/quick"
)

// TestRepairTimestampsAlwaysFeasible: the repaired sequence satisfies
// the gap constraints for arbitrary observed timestamps.
func TestRepairTimestampsAlwaysFeasible(t *testing.T) {
	f := func(raw []float64, loRaw, spanRaw float64) bool {
		lo := math.Abs(math.Mod(loRaw, 5))
		hi := lo + 0.1 + math.Abs(math.Mod(spanRaw, 10))
		ts := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ts = append(ts, math.Mod(v, 1e6))
		}
		repaired, err := RepairTimestamps(ts, lo, hi)
		if err != nil {
			return false
		}
		return len(timestampViolations(repaired, lo, hi)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRepairTimestampsIdempotent: repairing a repaired sequence is a
// no-op.
func TestRepairTimestampsIdempotent(t *testing.T) {
	f := func(raw []float64) bool {
		ts := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ts = append(ts, math.Mod(v, 1e5))
		}
		once, err := RepairTimestamps(ts, 0.5, 5)
		if err != nil {
			return false
		}
		twice, err := RepairTimestamps(once, 0.5, 5)
		if err != nil {
			return false
		}
		for i := range once {
			if math.Abs(once[i]-twice[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRepairTimestampsIdentityOnFeasible: feasible sequences pass
// through untouched.
func TestRepairTimestampsIdentityOnFeasible(t *testing.T) {
	f := func(gapsRaw []float64) bool {
		ts := []float64{0}
		for _, g := range gapsRaw {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				g = 0
			}
			gap := 0.5 + math.Abs(math.Mod(g, 4.5)) // in [0.5, 5]
			ts = append(ts, ts[len(ts)-1]+gap)
		}
		repaired, err := RepairTimestamps(ts, 0.5, 5)
		if err != nil {
			return false
		}
		for i := range ts {
			if repaired[i] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRepairTimestampsCorruptFirst: a grossly wrong first timestamp is
// re-anchored instead of dragging the rest of the sequence.
func TestRepairTimestampsCorruptFirst(t *testing.T) {
	truth := make([]float64, 50)
	obs := make([]float64, 50)
	for i := range truth {
		truth[i] = float64(i) * 2
		obs[i] = truth[i]
	}
	obs[0] -= 40 // gross clock error on the very first report
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
		t.Fatalf("first-timestamp repair: raw %v -> %v", rawErr, repErr)
	}
	if len(timestampViolations(repaired, 1, 3)) != 0 {
		t.Fatal("constraints violated")
	}
}

// timestampViolations is the oracle RepairTimestamps is held to: the
// indices i (of the second element of the pair) where ts[i] - ts[i-1]
// falls outside [minGap, maxGap].
func timestampViolations(ts []float64, minGap, maxGap float64) []int {
	var out []int
	for i := 1; i < len(ts); i++ {
		gap := ts[i] - ts[i-1]
		// Tolerance scales with magnitude: subtracting two large nearby
		// timestamps loses absolute precision.
		tol := 1e-9 * math.Max(1, math.Abs(ts[i]))
		if gap < minGap-tol || gap > maxGap+tol {
			out = append(out, i)
		}
	}
	return out
}
