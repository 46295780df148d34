package refine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/trajectory"
)

// TestExpUnderflowCutoff pins the guarantee the HMM emission skip
// relies on: math.Exp returns exactly +0 for every argument at or
// below expZero. If a toolchain ever changed that cutoff, the skip
// would stop being bit-identical, and this test (plus the goldens)
// must fail before the kernels ship.
func TestExpUnderflowCutoff(t *testing.T) {
	for _, x := range []float64{expZero, -746.5, -750, -800, -1000, -1e6, math.Inf(-1)} {
		got := math.Exp(x)
		if got != 0 || math.Signbit(got) {
			t.Fatalf("math.Exp(%v) = %v, want exactly +0", x, got)
		}
	}
	// The margin in d2Zero assumes the true cutoff is above expZero:
	// nearby arguments may legitimately return a denormal, never a
	// negative or NaN.
	if v := math.Exp(-745.0); !(v > 0) {
		t.Fatalf("math.Exp(-745) = %v, want a positive denormal", v)
	}
}

// naiveHMMGrid is the pre-optimization reference implementation: full
// per-cell center computation, full-grid emission and diffusion, no
// active window. The optimized HMMGrid must match it bit for bit.
type naiveHMMGrid struct {
	region     geo.Rect
	cell       float64
	nx, ny     int
	probs      []float64
	speedSigma float64
	measSigma  float64
}

func newNaiveHMMGrid(region geo.Rect, cell, speedSigma, measSigma float64) *naiveHMMGrid {
	if cell <= 0 {
		cell = 10
	}
	if speedSigma <= 0 {
		speedSigma = 2
	}
	if measSigma <= 0 {
		measSigma = 5
	}
	nx := int(math.Ceil(region.Width() / cell))
	ny := int(math.Ceil(region.Height() / cell))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	h := &naiveHMMGrid{
		region: region, cell: cell, nx: nx, ny: ny,
		probs:      make([]float64, nx*ny),
		speedSigma: speedSigma, measSigma: measSigma,
	}
	u := 1 / float64(nx*ny)
	for i := range h.probs {
		h.probs[i] = u
	}
	return h
}

func (h *naiveHMMGrid) center(i int) geo.Point {
	cx, cy := i%h.nx, i/h.nx
	return geo.Pt(
		h.region.Min.X+(float64(cx)+0.5)*h.cell,
		h.region.Min.Y+(float64(cy)+0.5)*h.cell,
	)
}

func (h *naiveHMMGrid) step(dt float64, obs geo.Point) geo.Point {
	if dt > 0 {
		h.diffuse(dt)
	}
	var sum float64
	for i := range h.probs {
		d2 := h.center(i).DistSq(obs)
		h.probs[i] *= math.Exp(-d2 / (2 * h.measSigma * h.measSigma))
		sum += h.probs[i]
	}
	if sum <= 0 {
		u := 1 / float64(len(h.probs))
		for i := range h.probs {
			h.probs[i] = u
		}
		sum = 1
	}
	var mx, my float64
	for i := range h.probs {
		h.probs[i] /= sum
		c := h.center(i)
		mx += h.probs[i] * c.X
		my += h.probs[i] * c.Y
	}
	return geo.Pt(mx, my)
}

func (h *naiveHMMGrid) diffuse(dt float64) {
	sigma := h.speedSigma * dt
	radius := int(math.Ceil(3 * sigma / h.cell))
	if radius < 1 {
		radius = 1
	}
	if radius > 6 {
		radius = 6
	}
	kernel := make([]float64, 2*radius+1)
	var ksum float64
	for k := -radius; k <= radius; k++ {
		d := float64(k) * h.cell
		kernel[k+radius] = math.Exp(-d * d / (2 * sigma * sigma))
		ksum += kernel[k+radius]
	}
	for i := range kernel {
		kernel[i] /= ksum
	}
	tmp := make([]float64, len(h.probs))
	for y := 0; y < h.ny; y++ {
		for x := 0; x < h.nx; x++ {
			var v float64
			for k := -radius; k <= radius; k++ {
				xx := x + k
				if xx < 0 || xx >= h.nx {
					continue
				}
				v += h.probs[y*h.nx+xx] * kernel[k+radius]
			}
			tmp[y*h.nx+x] = v
		}
	}
	for y := 0; y < h.ny; y++ {
		for x := 0; x < h.nx; x++ {
			var v float64
			for k := -radius; k <= radius; k++ {
				yy := y + k
				if yy < 0 || yy >= h.ny {
					continue
				}
				v += tmp[yy*h.nx+x] * kernel[k+radius]
			}
			h.probs[y*h.nx+x] = v
		}
	}
}

// TestHMMGridMatchesNaiveReference drives the windowed, unrolled
// HMMGrid and the naive full-grid reference through identical random
// observation sequences across grid shapes the E1 goldens do not
// cover — large diffusion radii, single-row/column grids, observations
// far outside the region — and requires bit-identical posterior state
// and estimates at every step.
func TestHMMGridMatchesNaiveReference(t *testing.T) {
	cases := []struct {
		name                        string
		region                      geo.Rect
		cell, speedSigma, measSigma float64
	}{
		{"e1-shape", geo.Rect{Min: geo.Pt(-50, -50), Max: geo.Pt(650, 650)}, 12, 3, 8},
		{"tight-sigma", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(200, 200)}, 5, 2, 2},
		{"wide-kernel", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(300, 300)}, 4, 40, 15},
		{"single-row", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(500, 8)}, 10, 5, 6},
		{"single-col", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(8, 500)}, 10, 5, 6},
		{"single-cell", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(5, 5)}, 10, 3, 4},
		{"huge-meas", geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(400, 400)}, 8, 3, 500},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			opt := NewHMMGrid(tc.region, tc.cell, tc.speedSigma, tc.measSigma)
			ref := newNaiveHMMGrid(tc.region, tc.cell, tc.speedSigma, tc.measSigma)
			// A wandering observer that occasionally teleports far
			// outside the region (forcing total underflow and the
			// uniform-reset path) and occasionally stalls (dt == 0).
			obs := tc.region.Center()
			for step := 0; step < 120; step++ {
				dt := []float64{0, 0.5, 1, 3}[rng.Intn(4)]
				switch rng.Intn(10) {
				case 0:
					obs = geo.Pt(tc.region.Min.X-1e5, tc.region.Min.Y-1e5)
				case 1:
					obs = tc.region.Center()
				default:
					obs = obs.Add(geo.Pt(rng.NormFloat64()*tc.cell, rng.NormFloat64()*tc.cell))
				}
				got := opt.Step(dt, obs)
				want := ref.step(dt, obs)
				if math.Float64bits(got.X) != math.Float64bits(want.X) ||
					math.Float64bits(got.Y) != math.Float64bits(want.Y) {
					t.Fatalf("step %d: estimate diverged: got %v want %v", step, got, want)
				}
				for i := range ref.probs {
					if math.Float64bits(opt.probs[i]) != math.Float64bits(ref.probs[i]) {
						t.Fatalf("step %d: posterior cell %d diverged: got %v want %v",
							step, i, opt.probs[i], ref.probs[i])
					}
				}
			}
		})
	}
}

// TestHMMWindowInvariant checks the active-window contract directly:
// after every step, all probability mass lies inside the window box.
func TestHMMWindowInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(400, 400)}
	h := NewHMMGrid(region, 10, 3, 4)
	obs := region.Center()
	for step := 0; step < 200; step++ {
		obs = obs.Add(geo.Pt(rng.NormFloat64()*8, rng.NormFloat64()*8))
		h.Step(1, obs)
		for y := 0; y < h.ny; y++ {
			for x := 0; x < h.nx; x++ {
				p := h.probs[y*h.nx+x]
				inside := x >= h.x0 && x <= h.x1 && y >= h.y0 && y <= h.y1
				if !inside && p != 0 {
					t.Fatalf("step %d: cell (%d,%d) outside window [%d,%d]x[%d,%d] holds %v",
						step, x, y, h.x0, h.x1, h.y0, h.y1, p)
				}
			}
		}
	}
}

// TestParticleFilterStepAllocFree pins the arena contract: after
// construction, Step (propagate + weight + resample) performs zero
// heap allocations.
func TestParticleFilterStepAllocFree(t *testing.T) {
	pf := newParticleFilter(nil, 400, geo.Pt(10, 10), 5, 1, 5, 42)
	obs := geo.Pt(11, 11)
	allocs := testing.AllocsPerRun(50, func() {
		obs = pf.Step(1, obs)
	})
	if allocs != 0 {
		t.Fatalf("ParticleFilter.Step allocated %.1f times/op, want 0", allocs)
	}
}

// TestParticleFilterPooledArenaMatchesFresh verifies that running a
// trajectory through a pooled (reused, dirty) arena yields the exact
// output of a fresh filter: the run must not depend on stale state.
func TestParticleFilterPooledArenaMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(seed int64) *trajectory.Trajectory {
		pts := make([]trajectory.Point, 120)
		x, y := 50.0, 50.0
		for i := range pts {
			x += rng.NormFloat64() * 3
			y += rng.NormFloat64() * 3
			pts[i] = trajectory.Point{T: float64(i), Pos: geo.Pt(x, y)}
		}
		return trajectory.New(fmt.Sprintf("p%d", seed), pts)
	}
	trs := []*trajectory.Trajectory{mk(1), mk(2), mk(3)}
	// First pass warms the pool; second pass reuses dirty arenas.
	first := make([]*trajectory.Trajectory, len(trs))
	for i, tr := range trs {
		first[i] = ParticleFilterTrajectory(tr, 400, 1, 5, 7+int64(i))
	}
	for i, tr := range trs {
		again := ParticleFilterTrajectory(tr, 400, 1, 5, 7+int64(i))
		if len(again.Points) != len(first[i].Points) {
			t.Fatalf("trajectory %d: length changed on pooled rerun", i)
		}
		for j := range again.Points {
			a, b := again.Points[j], first[i].Points[j]
			if math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
				math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) {
				t.Fatalf("trajectory %d point %d: pooled rerun diverged", i, j)
			}
		}
	}
}
