package trajectory

import (
	"math"
	"sync"
)

// dedupSeen is the one definition of "exact duplicate": the (T, X, Y)
// samples met so far, under Go map-key float equality — the semantics
// deduplicating through a map[Point]bool has, which DeduplicateCols and
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

// DeduplicateCols compacts src into dst, keeping the first occurrence
// of each exact (T, X, Y) sample. Kept samples are copied with their
// original bits (a -0 surviving as the first occurrence stays -0). dst
// is reset first; src is untouched.
func DeduplicateCols(dst, src *Columns) {
	n := src.Len()
	dst.Reset()
	dst.Grow(n)
	seen := getDedupSeen(n)
	defer seen.release(n)
	for i := 0; i < n; i++ {
		if t, x, y := src.T[i], src.X[i], src.Y[i]; !seen.dup(t, x, y) {
			dst.Append(t, x, y)
		}
	}
}

// CountDuplicates returns how many of pts DeduplicateCols would drop:
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
