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

		got := Deduplicate(pts)
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("trial %d: %d samples (cap %d), want %d", trial, len(got), cap(got), len(want))
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
	got := Deduplicate([]Point{
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
// a recycled set remembers nothing of its last trajectory.
func TestDedupSetIsPooledAndCleared(t *testing.T) {
	pts := make([]Point, 600)
	for i := range pts {
		pts[i] = Point{T: float64(i / 2), Pos: geo.Pt(float64(i/2), 1)} // every sample twice
	}
	count := func() {
		if n := CountDuplicates(pts); n != 300 {
			t.Fatalf("CountDuplicates = %d, want 300: a recycled set must start empty", n)
		}
	}
	dedup := func() {
		if got := Deduplicate(pts); len(got) != 300 {
			t.Fatalf("Deduplicate kept %d, want 300", len(got))
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
	if allocs := testing.AllocsPerRun(20, dedup); allocs != 1 {
		t.Errorf("Deduplicate allocates %v times per run once warm, want 1 (its output)", allocs)
	}
}
