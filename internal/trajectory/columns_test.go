package trajectory

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sidq/internal/geo"
)

// randPoints draws n points whose coordinates occasionally degenerate
// to NaN/±Inf — the round-trip must preserve them bit for bit.
func randPoints(rng *rand.Rand, n int, withSpecials bool) []Point {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	draw := func() float64 {
		if withSpecials && rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * 1e3
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{T: draw(), Pos: geo.Point{X: draw(), Y: draw()}}
	}
	return pts
}

func bitsEqualPoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) {
			return false
		}
	}
	return true
}

func TestColumnsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		pts := randPoints(rng, rng.Intn(50), true)
		var c Columns
		c.FromPoints(pts)
		if c.Len() != len(pts) {
			t.Fatalf("trial %d: Len=%d want %d", trial, c.Len(), len(pts))
		}
		back := c.ToPoints(nil)
		if !bitsEqualPoints(pts, back) {
			t.Fatalf("trial %d: ToPoints(FromPoints(pts)) != pts (specials must survive)", trial)
		}
		var c2 Columns
		c2.FromPoints(back)
		if !c.Equal(&c2) {
			t.Fatalf("trial %d: FromPoints(ToPoints(c)) != c", trial)
		}
	}
}

func TestColumnsReuseDoesNotAllocate(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(1)), 256, false)
	var c Columns
	c.FromPoints(pts) // warm the capacity
	allocs := testing.AllocsPerRun(50, func() {
		c.FromPoints(pts)
	})
	if allocs != 0 {
		t.Fatalf("FromPoints on warm Columns allocated %.1f times/op, want 0", allocs)
	}
}

// TestNewFastPathMatchesSort pins the satellite contract: New on
// already-ordered input must produce exactly what the historical
// copy-then-stable-sort produced, and unsorted/NaN input must still be
// sorted.
func TestNewFastPathMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		pts := randPoints(rng, 1+rng.Intn(40), trial%3 == 0)
		if trial%2 == 0 {
			// Pre-sort (NaNs removed) to exercise the fast path.
			for i := range pts {
				if math.IsNaN(pts[i].T) {
					pts[i].T = float64(i)
				}
			}
			sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
		}
		want := append([]Point(nil), pts...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].T < want[j].T })
		got := New("t", pts)
		if !bitsEqualPoints(got.Points, want) {
			t.Fatalf("trial %d: New output diverged from copy-then-stable-sort", trial)
		}
	}
}
