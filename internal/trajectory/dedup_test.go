package trajectory

import (
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
)

// aosDedup is the map[Point]bool reference the kernel must match bit
// for bit: Go map-key float equality decides what is a duplicate.
func aosDedup(pts []Point) []Point {
	seen := make(map[Point]bool, len(pts))
	var out []Point
	for _, p := range pts {
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// dedupSpecials draws coordinates that exercise every equality edge:
// NaN (never equal), ±0 (equal across signs), ±Inf, and a tiny value
// pool so exact duplicates are frequent.
func dedupSpecials(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	default:
		return float64(rng.Intn(4))
	}
}

func TestDeduplicateColsMatchesMapSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				T:   dedupSpecials(rng),
				Pos: geo.Point{X: dedupSpecials(rng), Y: dedupSpecials(rng)},
			}
		}
		orig := append([]Point(nil), pts...)
		want := aosDedup(pts)

		got := AppendDeduplicated(nil, pts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d samples, want %d", trial, len(got), len(want))
		}
		if !bitsEqualPoints(got, want) {
			t.Fatalf("trial %d: kept samples diverge from the reference: %+v, want %+v", trial, got, want)
		}
		if got := CountDuplicates(pts); got != n-len(want) {
			t.Fatalf("trial %d: CountDuplicates = %d, the reference drops %d", trial, got, n-len(want))
		}
		if !bitsEqualPoints(pts, orig) {
			t.Fatalf("trial %d: input mutated", trial)
		}
	}
}

func TestDeduplicateColsKeepsFirstZeroSpelling(t *testing.T) {
	negZero := math.Copysign(0, -1)
	got := AppendDeduplicated(nil, []Point{
		{T: 1, Pos: geo.Pt(negZero, 2)},
		{T: 1, Pos: geo.Pt(0, 2)}, // +0 duplicates -0: dropped
		{T: math.NaN()},
		{T: math.NaN()}, // NaN never duplicates: kept
	})
	if len(got) != 3 {
		t.Fatalf("kept %d samples, want 3", len(got))
	}
	if !math.Signbit(got[0].Pos.X) {
		t.Fatal("first occurrence's -0 bit pattern was not preserved")
	}
	if !math.IsNaN(got[1].T) || !math.IsNaN(got[2].T) {
		t.Fatal("NaN samples were deduplicated")
	}
}

// The seen-set and the duplicate marks come from pools: once they have
// grown to a trajectory's size, counting (every assessment round)
// allocates nothing and deduplicating allocates only its output — and
// a recycled set remembers nothing of its last trajectory. The input
// runs backwards in time, so the set is what counts; the same samples
// in time order take the run check, which allocates no more.
func TestDedupSetIsPooledAndCleared(t *testing.T) {
	sorted := make([]Point, 600)
	for i := range sorted {
		sorted[i] = Point{T: float64(i / 2), Pos: geo.Pt(float64(i/2), 1)} // every sample twice
	}
	reversed := make([]Point, len(sorted))
	for i, p := range sorted {
		reversed[len(reversed)-1-i] = p
	}
	if runCheckable(reversed) || !runCheckable(sorted) {
		t.Fatal("the reversed input must take the set and the sorted one the run check")
	}
	for _, pts := range [][]Point{reversed, sorted} {
		count := func() {
			if n := CountDuplicates(pts); n != 300 {
				t.Fatalf("CountDuplicates = %d, want 300: a recycled set must start empty", n)
			}
		}
		buf := make([]Point, 0, len(pts))
		dedup := func() {
			if got := AppendDeduplicated(buf, pts); len(got) != 300 {
				t.Fatalf("AppendDeduplicated kept %d, want 300", len(got))
			}
		}
		count()
		dedup()
		if israce.Enabled {
			return // sync.Pool drops items under the race detector by design
		}
		if allocs := testing.AllocsPerRun(20, count); allocs != 0 {
			t.Errorf("CountDuplicates allocates %v times per run once warm, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(20, dedup); allocs != 0 {
			t.Errorf("AppendDeduplicated into a buffer with room allocates %v times per run once warm, want 0", allocs)
		}
	}
}

// seenOracle marks duplicates with dedupSeen itself, the one definition
// the run check must reproduce.
func seenOracle(pts []Point) []bool {
	seen := dedupSeen{}
	out := make([]bool, len(pts))
	for i, p := range pts {
		out[i] = seen.dup(p.T, p.Pos.X, p.Pos.Y)
	}
	return out
}

// TestRunCheckDedupMatchesSet holds CountDuplicates and AppendDeduplicated to
// the dedupSeen oracle on both sides of the run check: time-sorted
// input (the run check), and unsorted input, a NaN stamp and runs of
// equal stamps past dedupRunMax (the set) — with NaN and ±0 in each of
// T, X and Y, and runs at, under and over the cutoff.
func TestRunCheckDedupMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	negZero := math.Copysign(0, -1)
	coord := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return math.NaN()
		case 1:
			return negZero
		case 2:
			return 0
		case 3:
			return math.Inf(1)
		default:
			return float64(rng.Intn(3))
		}
	}
	// sortedRuns builds time-sorted samples in runs of equal stamps, the
	// longest exactly longest; a run's stamp may be -0 where +0 is.
	sortedRuns := func(longest int) []Point {
		var pts []Point
		for r, stamp := 0, -2.0; r < 6; r, stamp = r+1, stamp+1 {
			n := 1 + rng.Intn(longest)
			if r == 3 {
				n = longest
			}
			for i := 0; i < n; i++ {
				ts := stamp
				if ts == 0 && rng.Intn(2) == 0 {
					ts = negZero
				}
				pts = append(pts, Point{T: ts, Pos: geo.Point{X: coord(), Y: coord()}})
			}
		}
		return pts
	}
	var runChecked, setChecked int
	check := func(name string, pts []Point) {
		t.Helper()
		if runCheckable(pts) {
			runChecked++
		} else {
			setChecked++
		}
		orig := append([]Point(nil), pts...)
		marks := seenOracle(pts)
		var want []Point
		for i, p := range pts {
			if !marks[i] {
				want = append(want, p)
			}
		}
		if got := CountDuplicates(pts); got != len(pts)-len(want) {
			t.Fatalf("%s: CountDuplicates = %d, dedupSeen counts %d (%v)", name, got, len(pts)-len(want), pts)
		}
		got := AppendDeduplicated(nil, pts)
		if !bitsEqualPoints(got, want) {
			t.Fatalf("%s: AppendDeduplicated kept %v, dedupSeen keeps %v", name, got, want)
		}
		if aliased := len(got) > 0 && &got[0] == &pts[0]; len(pts) > 0 && aliased != (len(want) == len(pts)) {
			t.Fatalf("%s: AppendDeduplicated returned its input %v; want it exactly when nothing repeats", name, aliased)
		}
		if !bitsEqualPoints(pts, orig) {
			t.Fatalf("%s: input mutated", name)
		}
	}
	for trial := 0; trial < 400; trial++ {
		for _, longest := range []int{1, 2, dedupRunMax - 1, dedupRunMax, dedupRunMax + 1, 3 * dedupRunMax} {
			pts := sortedRuns(longest)
			if want := longest <= dedupRunMax; runCheckable(pts) != want {
				t.Fatalf("runs up to %d: runCheckable = %v, want %v", longest, !want, want)
			}
			check("sorted", pts)
			// A NaN stamp anywhere sends the input to the set.
			withNaN := append([]Point(nil), pts...)
			withNaN[rng.Intn(len(withNaN))].T = math.NaN()
			check("NaN stamp", withNaN)
			// So does one sample out of order.
			if len(pts) > 1 {
				swapped := append([]Point(nil), pts...)
				i := rng.Intn(len(swapped) - 1)
				swapped[i], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[i]
				check("unsorted", swapped)
			}
		}
	}
	check("empty", nil)
	check("one NaN", []Point{{T: math.NaN()}})
	check("one", []Point{{T: 1}})
	if runChecked == 0 || setChecked == 0 {
		t.Fatalf("run check took %d inputs and the set %d: both paths must be exercised", runChecked, setChecked)
	}
}
