package trajectory

import (
	"math"
	"sync"
)

// dedupSeen is the one definition of "exact duplicate": the (T, X, Y)
// samples met so far, under Go map-key float equality — the semantics
// deduplicating through a map[Point]bool has, which Deduplicate and
// CountDuplicates must both reproduce bit for bit:
//
//   - NaN compares unequal to everything, itself included, so a sample
//     with a NaN field is never a duplicate.
//   - +0 equals -0, so the first spelling encountered wins and later
//     ones are duplicates regardless of sign bit.
type dedupSeen map[[3]uint64]struct{}

// dup reports whether (t, x, y) repeats an earlier sample, and records
// it when it does not.
func (seen dedupSeen) dup(t, x, y float64) bool {
	if t != t || x != x || y != y {
		return false
	}
	key := [3]uint64{dedupBits(t), dedupBits(x), dedupBits(y)}
	if _, dup := seen[key]; dup {
		return true
	}
	seen[key] = struct{}{}
	return false
}

// dedupSets recycles the sets of ordinary trajectories: one made per
// trajectory per assessment round was over a quarter of the bytes the
// clean path allocated. A trajectory past dedupPooledMax samples gets a
// set sized for it at once and leaves it to the GC — a set that large
// is worth neither keeping nor clearing.
var dedupSets = sync.Pool{New: func() any { return dedupSeen{} }}

const dedupPooledMax = 1 << 14

// getDedupSeen returns an empty set for n samples; hand it back with
// release(n).
func getDedupSeen(n int) dedupSeen {
	if n > dedupPooledMax {
		return make(dedupSeen, n)
	}
	return dedupSets.Get().(dedupSeen)
}

func (seen dedupSeen) release(n int) {
	if n <= dedupPooledMax {
		clear(seen)
		dedupSets.Put(seen)
	}
}

// dedupBits canonicalizes a non-NaN float for equality keying: both
// zeros share one key, everything else keys on its exact bits.
func dedupBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// dupMasks recycles the per-sample duplicate marks Deduplicate takes
// before it sizes its output.
var dupMasks = sync.Pool{New: func() any { return new([]bool) }}

// Deduplicate returns the first occurrence of each exact (T, X, Y)
// sample of pts, in order, in a fresh slice sized to what it keeps.
// Kept samples keep their original bits (a -0 surviving as the first
// occurrence stays -0); pts is untouched.
func Deduplicate(pts []Point) []Point {
	n := len(pts)
	maskP := dupMasks.Get().(*[]bool)
	defer dupMasks.Put(maskP)
	if cap(*maskP) < n {
		*maskP = make([]bool, n)
	}
	dup := (*maskP)[:n]
	seen := getDedupSeen(n)
	defer seen.release(n)
	kept := 0
	for i, p := range pts {
		if dup[i] = seen.dup(p.T, p.Pos.X, p.Pos.Y); !dup[i] {
			kept++
		}
	}
	out := make([]Point, 0, kept)
	for i, p := range pts {
		if !dup[i] {
			out = append(out, p)
		}
	}
	return out
}

// CountDuplicates returns how many of pts Deduplicate would drop:
// what the planner measures is what the stage removes.
func CountDuplicates(pts []Point) int {
	seen := getDedupSeen(len(pts))
	defer seen.release(len(pts))
	n := 0
	for _, p := range pts {
		if seen.dup(p.T, p.Pos.X, p.Pos.Y) {
			n++
		}
	}
	return n
}
