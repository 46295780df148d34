package reduce

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/trajectory"
)

func randWalkTrack(rng *rand.Rand, n int) *trajectory.Trajectory {
	pts := make([]trajectory.Point, n)
	x, y, t := 0.0, 0.0, 0.0
	for i := range pts {
		x += rng.NormFloat64() * 5
		y += rng.NormFloat64() * 5
		if rng.Intn(12) != 0 { // keep some duplicate timestamps
			t += 1 + rng.Float64()
		}
		pts[i] = trajectory.Point{T: t, Pos: geo.Pt(x, y)}
	}
	return trajectory.New(fmt.Sprintf("w%d", n), pts)
}

// edgeTracks are the fixed hostile inputs the differential test sees
// besides its random trials: every length up to 4, NaN/±Inf
// coordinates and timestamps, and duplicate-timestamp (degenerate
// chord) runs.
func edgeTracks() []*trajectory.Trajectory {
	nan, inf := math.NaN(), math.Inf(1)
	pt := func(t, x, y float64) trajectory.Point { return trajectory.Point{T: t, Pos: geo.Pt(x, y)} }
	walk := []trajectory.Point{pt(0, 0, 0), pt(1, 3, 40), pt(2, 9, -30), pt(3, 9, 2), pt(4, 50, 4), pt(5, 15, 3), pt(6, 18, 5)}
	var out []*trajectory.Trajectory
	for n := 0; n <= 4; n++ {
		out = append(out, &trajectory.Trajectory{ID: fmt.Sprintf("short%d", n), Points: walk[:n]})
	}
	poison := func(id string, i int, p trajectory.Point) {
		pts := append([]trajectory.Point(nil), walk...)
		pts[i] = p
		out = append(out, &trajectory.Trajectory{ID: id, Points: pts})
	}
	poison("nan-x", 3, pt(3, nan, 2))
	poison("nan-first", 0, pt(0, nan, nan))
	poison("nan-t", 2, pt(nan, 6, 1))
	poison("inf-x", 4, pt(4, inf, 4))
	poison("neginf-y", 6, pt(6, 18, -inf))
	poison("inf-t", 6, pt(inf, 18, 5))
	dupT := append([]trajectory.Point(nil), walk...)
	for i := range dupT {
		dupT[i].T = float64(i / 3)
	}
	out = append(out, &trajectory.Trajectory{ID: "dup-t", Points: dupT})
	sameT := append([]trajectory.Point(nil), walk...)
	for i := range sameT {
		sameT[i].T = 7
	}
	out = append(out, &trajectory.Trajectory{ID: "same-t", Points: sameT})
	return out
}

// samePoints requires got to be bit-identical to want.
func samePoints(t *testing.T, what string, got, want []trajectory.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, the reference keeps %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.T) != math.Float64bits(w.T) ||
			math.Float64bits(g.Pos.X) != math.Float64bits(w.Pos.X) ||
			math.Float64bits(g.Pos.Y) != math.Float64bits(w.Pos.Y) {
			t.Fatalf("%s: sample %d is %+v, the reference's is %+v", what, i, g, w)
		}
	}
}

// TestDouglasPeuckerSEDColsMatchesAoS pins the iterative
// DouglasPeuckerSED against the recursive reference bit for bit across
// hostile inputs, random tracks, epsilons, and degenerate
// (equal-timestamp) chords.
func TestDouglasPeuckerSEDColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tracks := edgeTracks()
	for trial := 0; trial < 150; trial++ {
		tracks = append(tracks, randWalkTrack(rng, rng.Intn(120)))
	}
	for _, tr := range tracks {
		for _, eps := range []float64{0, 0.5, 2, 10, 50} {
			what := fmt.Sprintf("%s eps=%v", tr.ID, eps)
			want := douglasPeuckerSEDRef(tr, eps)
			got := DouglasPeuckerSED(tr, eps)
			if got.ID != want.ID {
				t.Fatalf("%s: id %q want %q", what, got.ID, want.ID)
			}
			samePoints(t, what, got.Points, want.Points)
		}
	}
}

// TestDouglasPeuckerSEDColsReuseAllocFree pins the steady-state
// contract: with the keep and stack scratch pooled, a simplification
// allocates only its output — the trajectory and its points, sized to
// what it keeps.
func TestDouglasPeuckerSEDColsReuseAllocFree(t *testing.T) {
	tr := randWalkTrack(rand.New(rand.NewSource(32)), 300)
	fresh := DouglasPeuckerSED(tr, 5) // warms the pools
	if cap(fresh.Points) != len(fresh.Points) {
		t.Fatalf("output capacity %d for %d kept samples", cap(fresh.Points), len(fresh.Points))
	}
	var got *trajectory.Trajectory
	allocs := testing.AllocsPerRun(30, func() {
		got = DouglasPeuckerSED(tr, 5)
	})
	samePoints(t, "warm", got.Points, fresh.Points)
	// The count means nothing under the race detector (sync.Pool drops
	// items there by design).
	if allocs != 2 && !israce.Enabled {
		t.Fatalf("warm DouglasPeuckerSED allocated %.1f times/op, want 2 (the trajectory and its points)", allocs)
	}
}
