package trajectory

import "math"

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
	seen := make(dedupSeen, n)
	for i := 0; i < n; i++ {
		if t, x, y := src.T[i], src.X[i], src.Y[i]; !seen.dup(t, x, y) {
			dst.Append(t, x, y)
		}
	}
}

// CountDuplicates returns how many of pts DeduplicateCols would drop:
// what the planner measures is what the stage removes.
func CountDuplicates(pts []Point) int {
	seen := make(dedupSeen, len(pts))
	n := 0
	for _, p := range pts {
		if seen.dup(p.T, p.Pos.X, p.Pos.Y) {
			n++
		}
	}
	return n
}
