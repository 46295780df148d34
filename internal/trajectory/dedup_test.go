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
	var src, dst Columns
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				T:   dedupSpecials(rng),
				Pos: geo.Point{X: dedupSpecials(rng), Y: dedupSpecials(rng)},
			}
		}
		want := aosDedup(pts)

		src.FromPoints(pts)
		DeduplicateCols(&dst, &src)
		if dst.Len() != len(want) {
			t.Fatalf("trial %d: %d samples, want %d", trial, dst.Len(), len(want))
		}
		for j, w := range want {
			if g := (Point{T: dst.T[j], Pos: geo.Point{X: dst.X[j], Y: dst.Y[j]}}); !samePointBits(g, w) {
				t.Fatalf("trial %d sample %d: %+v, want %+v", trial, j, g, w)
			}
		}
		if got := CountDuplicates(pts); got != n-len(want) {
			t.Fatalf("trial %d: CountDuplicates = %d, the reference drops %d", trial, got, n-len(want))
		}
		// src must be untouched.
		if src.Len() != n {
			t.Fatalf("trial %d: src mutated to %d samples", trial, src.Len())
		}
	}
}

// samePointBits compares points by bit pattern, so NaN == NaN and
// +0 != -0: kept samples must preserve their exact input bits.
func samePointBits(a, b Point) bool {
	return math.Float64bits(a.T) == math.Float64bits(b.T) &&
		math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y)
}

func TestDeduplicateColsKeepsFirstZeroSpelling(t *testing.T) {
	var src, dst Columns
	negZero := math.Copysign(0, -1)
	src.Append(1, negZero, 2)
	src.Append(1, 0, 2) // +0 duplicates -0: dropped
	src.Append(math.NaN(), 0, 0)
	src.Append(math.NaN(), 0, 0) // NaN never duplicates: kept
	DeduplicateCols(&dst, &src)
	if dst.Len() != 3 {
		t.Fatalf("kept %d samples, want 3", dst.Len())
	}
	if math.Signbit(dst.X[0]) != true {
		t.Fatal("first occurrence's -0 bit pattern was not preserved")
	}
	if !math.IsNaN(dst.T[1]) || !math.IsNaN(dst.T[2]) {
		t.Fatal("NaN samples were deduplicated")
	}
}

// The seen-set comes from a pool: once one has grown to a trajectory's
// size, counting (every assessment round) and deduplicating allocate no
// set — and a recycled set remembers nothing of its last trajectory.
func TestDedupSetIsPooledAndCleared(t *testing.T) {
	pts := make([]Point, 600)
	for i := range pts {
		pts[i] = Point{T: float64(i / 2), Pos: geo.Pt(float64(i/2), 1)} // every sample twice
	}
	src, dst := &Columns{}, &Columns{}
	src.FromPoints(pts)
	run := func() {
		if n := CountDuplicates(pts); n != 300 {
			t.Fatalf("CountDuplicates = %d, want 300: a recycled set must start empty", n)
		}
		if DeduplicateCols(dst, src); dst.Len() != 300 {
			t.Fatalf("DeduplicateCols kept %d, want 300", dst.Len())
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 && !israce.Enabled {
		t.Errorf("CountDuplicates + DeduplicateCols allocate %v times per run once warm, want 0", allocs)
	}
}
