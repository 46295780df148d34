package outlier

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/trajectory"
)

// randTrack builds a dirty random walk: mostly smooth motion with
// occasional teleport spikes (speed violations), duplicate timestamps,
// and — when withSpecials — NaN/Inf coordinates.
func randTrack(rng *rand.Rand, n int, withSpecials bool) *trajectory.Trajectory {
	pts := make([]trajectory.Point, n)
	x, y, t := 0.0, 0.0, 0.0
	for i := range pts {
		switch {
		case rng.Intn(12) == 0:
			x += rng.NormFloat64() * 500 // teleport spike
			y += rng.NormFloat64() * 500
		default:
			x += rng.NormFloat64() * 3
			y += rng.NormFloat64() * 3
		}
		if rng.Intn(10) != 0 { // occasionally repeat a timestamp
			t += 1 + rng.Float64()
		}
		px, py := x, y
		if withSpecials && rng.Intn(25) == 0 {
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			px = specials[rng.Intn(len(specials))]
		}
		pts[i] = trajectory.Point{T: t, Pos: geo.Pt(px, py)}
	}
	return trajectory.New(fmt.Sprintf("r%d", n), pts)
}

// edgeTracks are the fixed hostile inputs every differential test sees
// besides its random trials: every length below the statistical
// detector's n<5 floor, NaN/±Inf coordinates and timestamps, and runs
// of duplicate timestamps.
func edgeTracks() []*trajectory.Trajectory {
	nan, inf := math.NaN(), math.Inf(1)
	pt := func(t, x, y float64) trajectory.Point { return trajectory.Point{T: t, Pos: geo.Pt(x, y)} }
	walk := []trajectory.Point{pt(0, 0, 0), pt(1, 3, 1), pt(2, 900, -900), pt(3, 9, 2), pt(4, 12, 4), pt(5, 15, 3), pt(6, 18, 5)}
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
	allSame := make([]trajectory.Point, 6)
	out = append(out, &trajectory.Trajectory{ID: "all-same", Points: allSame})
	return out
}

// trialTracks is edgeTracks plus n seeded random dirty walks.
func trialTracks(rng *rand.Rand, n, maxLen int) []*trajectory.Trajectory {
	out := edgeTracks()
	for i := 0; i < n; i++ {
		out = append(out, randTrack(rng, rng.Intn(maxLen), i%4 == 0))
	}
	return out
}

func sameFlags(t *testing.T, what string, got, want []bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: flag length %d want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: flag[%d] = %v, reference says %v", what, i, got[i], want[i])
		}
	}
}

// TestSpeedConstraintColsMatchesAoS pins SpeedConstraint, with a fresh
// and with a reused flag buffer, against its reference body.
func TestSpeedConstraintColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var flags []bool
	for _, tr := range trialTracks(rng, 120, 60) {
		for _, maxSpeed := range []float64{0, 5, 10, 50} {
			what := fmt.Sprintf("%s maxSpeed=%v", tr.ID, maxSpeed)
			want := speedConstraintRef(tr, maxSpeed)
			sameFlags(t, what+" fresh", SpeedConstraint(tr.Points, maxSpeed, nil), want)
			flags = SpeedConstraint(tr.Points, maxSpeed, flags)
			sameFlags(t, what+" reused", flags, want)
		}
	}
}

func TestStatisticalColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var flags []bool
	var floats []float64
	for _, tr := range trialTracks(rng, 120, 80) {
		opt := StatisticalOptions{
			Window:    []int{0, 2, 5}[rng.Intn(3)],
			Threshold: []float64{0, 2.5, 3.5}[rng.Intn(3)],
		}
		what := fmt.Sprintf("%s opt=%+v", tr.ID, opt)
		want := statisticalRef(tr, opt)
		sameFlags(t, what+" fresh", Statistical(tr.Points, opt, nil, nil), want)
		flags = Statistical(tr.Points, opt, flags, &floats)
		sameFlags(t, what+" reused", flags, want)
	}
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

func TestRemoveColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tr := range trialTracks(rng, 60, 40) {
		flags := make([]bool, rng.Intn(tr.Len()+4)) // may be shorter/longer than tr
		for i := range flags {
			flags[i] = rng.Intn(3) == 0
		}
		want := removeRef(tr, flags)
		got := Remove(tr, flags)
		if got.ID != want.ID {
			t.Fatalf("%s: id %q want %q", tr.ID, got.ID, want.ID)
		}
		samePoints(t, tr.ID, got.Points, want.Points)
		if cap(got.Points) != len(got.Points) {
			t.Fatalf("%s: output capacity %d for %d kept samples", tr.ID, cap(got.Points), len(got.Points))
		}
	}
}

// TestColumnarDetectorsReuseAllocFree pins the steady-state contract:
// with warm flag buffers and float scratch, the detectors do not
// allocate, and a reused buffer holds the verdict a fresh one gets.
func TestColumnarDetectorsReuseAllocFree(t *testing.T) {
	pts := randTrack(rand.New(rand.NewSource(24)), 256, false).Points
	flags := SpeedConstraint(pts, 10, nil)
	var floats []float64
	flags2 := Statistical(pts, StatisticalOptions{}, nil, &floats)
	fresh, fresh2 := append([]bool(nil), flags...), append([]bool(nil), flags2...)
	allocs := testing.AllocsPerRun(30, func() {
		flags = SpeedConstraint(pts, 10, flags)
		flags2 = Statistical(pts, StatisticalOptions{}, flags2, &floats)
	})
	if !reflect.DeepEqual(flags, fresh) || !reflect.DeepEqual(flags2, fresh2) {
		t.Fatal("reused flag buffers hold different verdicts than fresh ones")
	}
	// The count means nothing under the race detector (sync.Pool drops
	// items there by design).
	if allocs != 0 && !israce.Enabled {
		t.Fatalf("warm detectors allocated %.1f times/op, want 0", allocs)
	}
}
