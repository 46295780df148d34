package trajectory

import (
	"math"
	"slices"
	"sync"
)

// dedupSeen is the one definition of "exact duplicate": the (T, X, Y)
// samples met so far, under Go map-key float equality — the semantics
// deduplicating through a map[Point]bool has, which AppendDeduplicated
// and CountDuplicates must both reproduce bit for bit, on the set itself
// or on scanDuplicates' run check:
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

// AppendDeduplicated appends the first occurrence of each exact
// (T, X, Y) sample of pts to dst, in order, and returns the extended
// slice — or pts itself when no sample repeats. Kept samples keep their
// original bits (a -0 surviving as the first occurrence stays -0); pts
// is untouched.
func AppendDeduplicated(dst, pts []Point) []Point {
	out, dups := scanDuplicates(pts, dst, true)
	if dups == 0 {
		return pts
	}
	return out
}

// CountDuplicates returns how many of pts AppendDeduplicated drops:
// what the planner measures is what the stage removes.
func CountDuplicates(pts []Point) int {
	_, dups := scanDuplicates(pts, nil, false)
	return dups
}

// dedupRunMax is the longest run of equal stamps scanDuplicates
// compares pairwise. A longer one — a source stuck on one stamp, or a
// body built to make the pairwise scan quadratic — sends the whole
// input to the set.
const dedupRunMax = 16

// scanDuplicates finds the samples of pts that repeat an earlier one
// under dedupSeen's equality and returns how many repeat. With keep
// set it appends the others to dst as it goes: at the first repeat it
// grows dst once for every sample that could follow and copies the
// prefix before it, so nothing is appended while nothing repeats.
// While pts are time-sorted with no NaN stamp — what a decoded or
// cleaned trajectory is — an equal sample can only sit earlier in the
// same run of equal T, so each sample is compared with its run's
// earlier positions and no set is built. Position == is float
// equality, so NaN matches nothing and +0 matches -0, as in the set.
// Unsorted input, a NaN stamp or a run past dedupRunMax goes through
// dedupSeen.
func scanDuplicates(pts, dst []Point, keep bool) ([]Point, int) {
	var seen dedupSeen
	if !runCheckable(pts) {
		seen = getDedupSeen(len(pts))
		defer seen.release(len(pts))
	}
	n, run := 0, 0 // run: where the run of pts[i].T starts
	for i, p := range pts {
		var d bool
		if seen != nil {
			d = seen.dup(p.T, p.Pos.X, p.Pos.Y)
		} else {
			if p.T != pts[run].T {
				run = i
			}
			for _, q := range pts[run:i] {
				if d = q.Pos == p.Pos; d {
					break
				}
			}
		}
		switch {
		case !keep:
		case d && n == 0:
			dst = append(slices.Grow(dst, len(pts)-1), pts[:i]...)
		case !d && n > 0:
			dst = append(dst, p)
		}
		if d {
			n++
		}
	}
	return dst, n
}

// runCheckable reports whether pts are in non-decreasing time order
// with no NaN stamp and no run of equal stamps past dedupRunMax.
func runCheckable(pts []Point) bool {
	run := 1
	for i := 1; i < len(pts); i++ {
		switch {
		case pts[i].T > pts[i-1].T:
			run = 1
		case pts[i].T == pts[i-1].T:
			if run++; run > dedupRunMax {
				return false
			}
		default: // out of order, or a NaN on either side
			return false
		}
	}
	return len(pts) == 0 || !math.IsNaN(pts[0].T)
}
