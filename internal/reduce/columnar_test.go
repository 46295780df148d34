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
	var g, w trajectory.Columns
	g.FromPoints(got)
	w.FromPoints(want)
	if !g.Equal(&w) {
		t.Fatalf("%s: %d samples diverge from the reference's %d", what, len(got), len(want))
	}
}

// TestDouglasPeuckerSEDColsMatchesAoS pins the iterative kernel and its
// []Point entry point against the recursive pre-columnar reference bit
// for bit across hostile inputs, random tracks, epsilons, and
// degenerate (equal-timestamp) chords.
func TestDouglasPeuckerSEDColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tracks := edgeTracks()
	for trial := 0; trial < 150; trial++ {
		tracks = append(tracks, randWalkTrack(rng, rng.Intn(120)))
	}
	var c, dst trajectory.Columns
	for _, tr := range tracks {
		for _, eps := range []float64{0, 0.5, 2, 10, 50} {
			what := fmt.Sprintf("%s eps=%v", tr.ID, eps)
			want := douglasPeuckerSEDRef(tr, eps)
			got := DouglasPeuckerSED(tr, eps)
			if got.ID != want.ID {
				t.Fatalf("%s: entry point id %q want %q", what, got.ID, want.ID)
			}
			samePoints(t, what+" entry point", got.Points, want.Points)
			c.FromTrajectory(tr)
			DouglasPeuckerSEDCols(&dst, &c, eps)
			samePoints(t, what+" kernel", dst.ToPoints(nil), want.Points)
		}
	}
}

// TestDouglasPeuckerSEDColsReuseAllocFree pins the steady-state
// contract: warm destination columns plus pooled keep/stack scratch
// means zero allocations per simplification, and a reused destination
// holds the simplification a fresh one gets.
func TestDouglasPeuckerSEDColsReuseAllocFree(t *testing.T) {
	tr := randWalkTrack(rand.New(rand.NewSource(32)), 300)
	var c, dst, fresh trajectory.Columns
	c.FromTrajectory(tr)
	DouglasPeuckerSEDCols(&fresh, &c, 5)
	DouglasPeuckerSEDCols(&dst, &c, 5) // warm pools and dst
	allocs := testing.AllocsPerRun(30, func() {
		DouglasPeuckerSEDCols(&dst, &c, 5)
	})
	if !dst.Equal(&fresh) {
		t.Fatal("a reused destination holds a different simplification than a fresh one")
	}
	// The count means nothing under the race detector (sync.Pool drops
	// items there by design).
	if allocs != 0 && !israce.Enabled {
		t.Fatalf("warm DouglasPeuckerSEDCols allocated %.1f times/op, want 0", allocs)
	}
}
