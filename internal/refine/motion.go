package refine

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/trajectory"
)

// Kalman is a constant-velocity Kalman filter over planar position
// observations: state [x y vx vy], position-only measurements. It is
// the canonical Bayes-filter instance of motion-based LR.
//
// The prior covariance, the transition, the process noise and the
// measurement model are all block-diagonal in (x,vx)/(y,vy), so the two
// axes never couple and — starting from the same prior — carry the same
// covariance for ever: the filter is two 2-state means over one shared
// 2x2 covariance block. Every expression below is written in the order
// the 4x4 matrix form accumulates it (denseKalman in the tests), down to
// the +0 each of its sums starts from, which is what turns a -0 operand
// into +0. Contract: on every run whose states stay finite the outputs
// have the matrix form's math.Float64bits; on a run that overflows, the
// same length and no panic.
//
// The filter holds no pointers and allocates nothing. A Kalman value is
// not safe for concurrent use (create one per trajectory, as the
// trajectory-level helpers do).
type Kalman struct {
	x cvState // per-axis means
	p block2  // the one covariance block both axes share
	q float64 // process-noise intensity (acceleration PSD)
	r float64 // measurement noise stddev (meters)
}

// cvState is the constant-velocity state: position and velocity on each
// axis.
type cvState struct{ sx, vx, sy, vy float64 }

// block2 is a 2x2 block [[a b] [c d]] over (position, velocity) of one
// axis: the covariance, or a gain. b and c are separate floats because
// the update rounds P[pos,vel] and P[vel,pos] differently.
type block2 struct{ a, b, c, d float64 }

// NewKalman returns a filter initialized at pos with zero velocity,
// the given process-noise intensity q (m/s^2 scale) and measurement
// noise stddev r (meters).
func NewKalman(pos geo.Point, q, r float64) *Kalman {
	if q <= 0 {
		q = 1
	}
	if r <= 0 {
		r = 1
	}
	return &Kalman{x: cvState{sx: pos.X, sy: pos.Y}, p: block2{a: 100, d: 100}, q: q, r: r}
}

// Predict advances the state dt seconds without a measurement.
func (k *Kalman) Predict(dt float64) {
	if dt <= 0 {
		return
	}
	x, p := &k.x, &k.p
	x.sx = (0 + x.sx) + dt*x.vx
	x.sy = (0 + x.sy) + dt*x.vy
	x.vx = 0 + x.vx
	x.vy = 0 + x.vy
	// p = f*p*f' + Q: f*p first, then times f', then the white-
	// acceleration noise.
	fp := block2{(0 + p.a) + dt*p.c, (0 + p.b) + dt*p.d, 0 + p.c, 0 + p.d}
	dt2 := dt * dt
	dt3 := dt2 * dt / 3
	half := dt2 / 2
	p.a = ((0 + fp.a) + fp.b*dt) + dt3*k.q
	p.b = (0 + fp.b) + half*k.q
	p.c = ((0 + fp.c) + fp.d*dt) + half*k.q
	p.d = (0 + fp.d) + dt*k.q
}

// Update folds in a position observation. An observation with a NaN or
// infinite coordinate is a missing measurement: the state stays at its
// prediction instead of going non-finite for the rest of the run.
func (k *Kalman) Update(obs geo.Point) {
	if !finitePos(obs) {
		return
	}
	x, p := &k.x, &k.p
	yx := obs.X - x.sx
	yy := obs.Y - x.sy
	s := (0 + p.a) + k.r*k.r
	if math.Abs(s) < 1e-12 {
		return // degenerate covariance: skip the update
	}
	si := 1 / s
	g0 := 0 + (0+p.a)*si
	g1 := 0 + (0+p.c)*si
	x.sx += 0 + g0*yx
	x.sy += 0 + g0*yy
	x.vx += 0 + g1*yx
	x.vy += 0 + g1*yy
	// p = (I - gain*h) * p
	m0 := 1 - g0
	m1 := 0 - g1
	*p = block2{0 + m0*p.a, 0 + m0*p.b, (0 + m1*p.a) + p.c, (0 + m1*p.b) + p.d}
}

// finitePos reports whether both coordinates of p are finite.
func finitePos(p geo.Point) bool { return finite(p.X) && finite(p.Y) }

// finite reports whether f is neither NaN nor infinite: f-f is NaN
// for both.
func finite(f float64) bool { return f-f == 0 }

// Step performs Predict(dt) then Update(obs) and returns the position.
func (k *Kalman) Step(dt float64, obs geo.Point) geo.Point {
	k.Predict(dt)
	k.Update(obs)
	return k.Position()
}

// Position returns the current position estimate.
func (k *Kalman) Position() geo.Point { return geo.Pt(k.x.sx, k.x.sy) }

// Innovation returns the distance between a prospective observation and
// the predicted position dt seconds ahead, without mutating the filter.
// Prediction-based outlier detection uses this as its test statistic.
func (k *Kalman) Innovation(dt float64, obs geo.Point) float64 {
	return obs.Dist(geo.Pt((0+k.x.sx)+dt*k.x.vx, (0+k.x.sy)+dt*k.x.vy))
}

// firstFinitePos returns the first position of tr with two finite
// coordinates and a finite stamp (the origin if there is none): what
// the trajectory helpers start the filter at, so that a bad first row
// is a missing measurement or step like any other.
func firstFinitePos(tr *trajectory.Trajectory) geo.Point {
	for _, p := range tr.Points {
		if finite(p.T) && finitePos(p.Pos) {
			return p.Pos
		}
	}
	return geo.Point{}
}

// KalmanFilterTrajectory runs the filter forward over a trajectory and
// returns the filtered (causal) trajectory. A sample whose stamp is not
// finite is a missing step: the filter neither predicts nor updates
// there, the next step's dt runs from the last finite stamp, and the
// sample is given the current estimate.
func KalmanFilterTrajectory(tr *trajectory.Trajectory, q, r float64) *trajectory.Trajectory {
	out := &trajectory.Trajectory{ID: tr.ID}
	if tr.Len() == 0 {
		return out
	}
	k := NewKalman(firstFinitePos(tr), q, r)
	prevT := math.NaN() // the last finite stamp; NaN before the first
	out.Points = make([]trajectory.Point, 0, tr.Len())
	for _, p := range tr.Points {
		switch {
		case !finite(p.T): // a missing step
		case math.IsNaN(prevT):
			k.Update(p.Pos)
			prevT = p.T
		default:
			k.Step(math.Max(p.T-prevT, 1e-9), p.Pos)
			prevT = p.T
		}
		out.Points = append(out.Points, trajectory.Point{T: p.T, Pos: k.Position()})
	}
	return out
}

// rtsStep is what the backward RTS pass needs of one forward step: the
// predicted and filtered states, the covariance block at both, and the
// dt of the transition that led here. It holds no pointers, so pooled
// slices pin nothing between uses.
type rtsStep struct {
	xPred, xFilt cvState
	pPred, pFilt block2
	dt           float64
}

// The smoother's per-call scratch (one step record per point) is
// pooled: smoothing runs once per trajectory per pipeline attempt.
var stepsPool = sync.Pool{New: func() any { return new([]rtsStep) }}

func getSteps(n int) *[]rtsStep {
	p := stepsPool.Get().(*[]rtsStep)
	if cap(*p) < n {
		*p = make([]rtsStep, n)
	}
	*p = (*p)[:n]
	return p
}

// rtsGain returns the smoother gain block pFilt * f' * pPred^-1, or
// false when pPred is singular. The inverse is the Gauss-Jordan
// elimination with partial pivoting the matrix form runs on each axis
// block of the 4x4: same pivot choice, same < 1e-12 exits, same f == 0
// skips.
func rtsGain(pFilt, pPred block2, dt float64) (g block2, ok bool) {
	m, inv := pPred, block2{a: 1, d: 1}
	if math.Abs(m.c) > math.Abs(m.a) {
		m = block2{m.c, m.d, m.a, m.b}
		inv = block2{inv.c, inv.d, inv.a, inv.b}
	}
	if math.Abs(m.a) < 1e-12 {
		return g, false
	}
	m.b, inv.a, inv.b = m.b/m.a, inv.a/m.a, inv.b/m.a
	if m.c != 0 {
		m.d, inv.c, inv.d = m.d-m.c*m.b, inv.c-m.c*inv.a, inv.d-m.c*inv.b
	}
	if math.Abs(m.d) < 1e-12 {
		return g, false
	}
	inv.c, inv.d = inv.c/m.d, inv.d/m.d
	if m.b != 0 {
		inv.a, inv.b = inv.a-m.b*inv.c, inv.b-m.b*inv.d
	}
	// pFilt * f', then times the inverse.
	t := block2{(0 + pFilt.a) + pFilt.b*dt, 0 + pFilt.b, (0 + pFilt.c) + pFilt.d*dt, 0 + pFilt.d}
	g.a = (0 + t.a*inv.a) + t.b*inv.c
	g.b = (0 + t.a*inv.b) + t.b*inv.d
	g.c = (0 + t.c*inv.a) + t.d*inv.c
	g.d = (0 + t.c*inv.b) + t.d*inv.d
	return g, true
}

// KalmanSmoothTrajectory runs a forward pass followed by a
// Rauch-Tung-Striebel backward smoother, producing the non-causal MAP
// trajectory. This is the smoothing-based uncertainty eliminator built
// on the same motion model. Only the smoothed means are computed: the
// smoothed covariance feeds no mean and is returned to nobody.
//
// A sample whose stamp is not finite is a missing step, as in
// KalmanFilterTrajectory: both passes skip it, and it is given the
// smoothed estimate of the next finite step (the filtered one when no
// finite step follows).
func KalmanSmoothTrajectory(tr *trajectory.Trajectory, q, r float64) *trajectory.Trajectory {
	out := &trajectory.Trajectory{ID: tr.ID}
	if n := tr.Len(); n > 0 {
		out.Points = AppendKalmanSmoothed(make([]trajectory.Point, 0, n), tr, q, r)
	}
	return out
}

// AppendKalmanSmoothed is KalmanSmoothTrajectory's append form: it
// appends the smoothed points of tr to dst, which must not share memory
// with tr.Points, and returns the extended slice.
func AppendKalmanSmoothed(dst []trajectory.Point, tr *trajectory.Trajectory, q, r float64) []trajectory.Point {
	n := tr.Len()
	if n == 0 {
		return dst
	}
	stepsP := getSteps(n)
	defer stepsPool.Put(stepsP)
	steps := *stepsP
	k := NewKalman(firstFinitePos(tr), q, r)
	prevT := math.NaN() // the last finite stamp; NaN before the first
	for i, p := range tr.Points {
		if !finite(p.T) {
			continue
		}
		st := &steps[i]
		if !math.IsNaN(prevT) {
			st.dt = math.Max(p.T-prevT, 1e-9)
			k.Predict(st.dt)
		}
		st.xPred, st.pPred = k.x, k.p
		k.Update(p.Pos)
		st.xFilt, st.pFilt = k.x, k.p
		prevT = p.T
	}
	// Backward RTS pass: next is the first finite step after i and xs its
	// smoothed state on entry to iteration i; xs[i] = xFilt + gain *
	// (xs[next] - xPred[next]). While there is no such step, next is a
	// zero record, whose singular pPred leaves xs[i] = xFilt.
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	next, xs := &rtsStep{}, k.x
	for i := n - 1; i >= 0; i-- {
		if st := &steps[i]; finite(tr.Points[i].T) {
			if g, ok := rtsGain(st.pFilt, next.pPred, next.dt); ok {
				dx, dvx := xs.sx-next.xPred.sx, xs.vx-next.xPred.vx
				dy, dvy := xs.sy-next.xPred.sy, xs.vy-next.xPred.vy
				xs.sx = st.xFilt.sx + ((0 + g.a*dx) + g.b*dvx)
				xs.vx = st.xFilt.vx + ((0 + g.c*dx) + g.d*dvx)
				xs.sy = st.xFilt.sy + ((0 + g.a*dy) + g.b*dvy)
				xs.vy = st.xFilt.vy + ((0 + g.c*dy) + g.d*dvy)
			} else {
				xs = st.xFilt
			}
			next = st
		}
		out[i] = trajectory.Point{T: tr.Points[i].T, Pos: geo.Pt(xs.sx, xs.sy)}
	}
	return dst[:len(dst)+n]
}

// ParticleFilter is a sequential Monte Carlo motion-based locator with
// a random-walk-velocity dynamics model and Gaussian position
// likelihood. It handles non-linear/non-Gaussian settings the Kalman
// filter cannot.
//
// All per-particle state lives in one contiguous float64 arena sliced
// into columns (px|py|vx|vy|w plus a spare set for resampling), so the
// propagate/weight/resample loops stream flat memory and Step runs
// allocation-free: resampling writes into the spare columns and swaps
// them in instead of allocating fresh slices every step.
type ParticleFilter struct {
	arena          []float64 // the 9n backing block (owned, poolable)
	px, py, vx, vy []float64
	w              []float64
	// spare columns the systematic resampler scatters into before the
	// swap (double buffering; contents are dead between steps).
	spx, spy, svx, svy []float64
	q                  float64 // velocity diffusion (m/s per sqrt(s))
	r                  float64 // measurement stddev (m)
	rng                *rand.Rand
}

// pfArena pools particle-state arenas across trajectory runs: the
// filter is rebuilt per trajectory per pipeline attempt, and its
// backing block is the only steady-state allocation left.
var pfArena = sync.Pool{New: func() any { return new([]float64) }}

// newParticleFilter returns a filter with n particles spread with
// stddev spread around pos. It initializes the filter inside arena when
// that is large enough (9n floats), allocating otherwise.
func newParticleFilter(arena []float64, n int, pos geo.Point, spread, q, r float64, seed int64) *ParticleFilter {
	if n < 10 {
		n = 10
	}
	if q <= 0 {
		q = 1
	}
	if r <= 0 {
		r = 1
	}
	if cap(arena) < 9*n {
		arena = make([]float64, 9*n)
	}
	arena = arena[:9*n]
	pf := &ParticleFilter{
		arena: arena,
		px:    arena[0*n : 1*n],
		py:    arena[1*n : 2*n],
		vx:    arena[2*n : 3*n],
		vy:    arena[3*n : 4*n],
		w:     arena[4*n : 5*n],
		spx:   arena[5*n : 6*n],
		spy:   arena[6*n : 7*n],
		svx:   arena[7*n : 8*n],
		svy:   arena[8*n : 9*n],
		q:     q, r: r,
		rng: rand.New(rand.NewSource(seed)),
	}
	// A pooled arena may carry stale velocities; the zero state is part
	// of the filter contract.
	for i := range pf.vx {
		pf.vx[i] = 0
		pf.vy[i] = 0
	}
	for i := 0; i < n; i++ {
		pf.px[i] = pos.X + pf.rng.NormFloat64()*spread
		pf.py[i] = pos.Y + pf.rng.NormFloat64()*spread
		pf.w[i] = 1 / float64(n)
	}
	return pf
}

// Step propagates dt seconds, weights against obs, resamples, and
// returns the posterior mean position.
func (pf *ParticleFilter) Step(dt float64, obs geo.Point) geo.Point {
	if dt <= 0 {
		dt = 1e-3
	}
	sq := math.Sqrt(dt) * pf.q
	den := 2 * pf.r * pf.r
	px, py, vx, vy, w := pf.px, pf.py, pf.vx, pf.vy, pf.w
	rng := pf.rng
	var wsum float64
	for i := range px {
		vx[i] += rng.NormFloat64() * sq
		vy[i] += rng.NormFloat64() * sq
		px[i] += vx[i] * dt
		py[i] += vy[i] * dt
		dx := px[i] - obs.X
		dy := py[i] - obs.Y
		w[i] = math.Exp(-(dx*dx + dy*dy) / den)
		wsum += w[i]
	}
	if wsum <= 0 {
		// All particles far away: reinitialize around the observation.
		for i := range px {
			px[i] = obs.X + rng.NormFloat64()*pf.r
			py[i] = obs.Y + rng.NormFloat64()*pf.r
			w[i] = 1 / float64(len(w))
		}
		wsum = 1
	}
	var mx, my float64
	for i := range w {
		w[i] /= wsum
		mx += w[i] * px[i]
		my += w[i] * py[i]
	}
	pf.resample()
	return geo.Pt(mx, my)
}

// resample performs systematic resampling into the spare columns and
// swaps them in — no allocation, same draws and copy order as the
// historical allocating form.
func (pf *ParticleFilter) resample() {
	n := len(pf.w)
	w, px, py, vx, vy := pf.w, pf.px, pf.py, pf.vx, pf.vy
	npx, npy, nvx, nvy := pf.spx, pf.spy, pf.svx, pf.svy
	step := 1 / float64(n)
	u := pf.rng.Float64() * step
	var cum float64
	j := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for cum+w[j] < target && j < n-1 {
			cum += w[j]
			j++
		}
		npx[i], npy[i] = px[j], py[j]
		nvx[i], nvy[i] = vx[j], vy[j]
	}
	pf.spx, pf.spy, pf.svx, pf.svy = px, py, vx, vy
	pf.px, pf.py, pf.vx, pf.vy = npx, npy, nvx, nvy
	for i := range w {
		w[i] = step
	}
}

// ParticleFilterTrajectory runs the particle filter over a trajectory.
// The particle arena is drawn from a pool shared across calls, so
// repeated pipeline attempts reuse one block instead of reallocating
// per trajectory.
func ParticleFilterTrajectory(tr *trajectory.Trajectory, n int, q, r float64, seed int64) *trajectory.Trajectory {
	out := &trajectory.Trajectory{ID: tr.ID}
	if tr.Len() == 0 {
		return out
	}
	arenaP := pfArena.Get().(*[]float64)
	pf := newParticleFilter(*arenaP, n, tr.Points[0].Pos, r, q, r, seed)
	*arenaP = pf.arena
	defer pfArena.Put(arenaP)
	prevT := tr.Points[0].T
	out.Points = make([]trajectory.Point, 0, tr.Len())
	for i, p := range tr.Points {
		dt := p.T - prevT
		if i == 0 {
			dt = 1e-3
		}
		pos := pf.Step(dt, p.Pos)
		prevT = p.T
		out.Points = append(out.Points, trajectory.Point{T: p.T, Pos: pos})
	}
	return out
}

// HMMGrid is a discrete Bayes (histogram) filter: the region is tiled
// into cells, motion diffuses probability to neighboring cells, and
// observations reweight by a Gaussian likelihood. It is the
// probabilistic-graph-model representative of motion-based LR.
//
// The grid is stored struct-of-arrays style: the posterior lives in one
// flat row-major probs slice, and the cell-center coordinates are
// precomputed per axis (cxs/cys) so no inner loop ever does the i%nx /
// i/nx index arithmetic of the old per-cell center lookup. The filter
// additionally tracks the active window — the bounding box of cells
// whose probability is not exactly +0 — and restricts every pass to it.
// Outside that box the old full-grid loops only ever computed 0*k
// products and +0 additions, so skipping them changes no output bit.
type HMMGrid struct {
	region     geo.Rect
	cell       float64
	nx, ny     int
	probs      []float64
	speedSigma float64 // motion diffusion, m/s
	measSigma  float64

	cxs, cys []float64 // per-axis cell-center coordinates
	ex2      []float64 // per-step scratch: squared x-distance to the observation
	// Active window (inclusive): every cell outside
	// [x0,x1]x[y0,y1] holds exactly +0.
	x0, x1, y0, y1 int
}

// expZero is a conservative underflow bound: math.Exp returns exactly
// +0 for every argument below it (the library cutoff is ~-745.134;
// TestExpUnderflowCutoff pins the guarantee). Skipping the Exp call for
// such arguments and writing 0 directly is bit-identical, because for
// the non-negative probabilities a grid holds p*0 is +0 and sum+=0
// leaves the accumulator unchanged.
const expZero = -746.0

// NewHMMGrid returns a uniform-prior grid filter.
func NewHMMGrid(region geo.Rect, cell, speedSigma, measSigma float64) *HMMGrid {
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
	h := &HMMGrid{
		region: region, cell: cell, nx: nx, ny: ny,
		probs:      make([]float64, nx*ny),
		speedSigma: speedSigma, measSigma: measSigma,
		cxs: make([]float64, nx),
		cys: make([]float64, ny),
		ex2: make([]float64, nx),
		x0:  0, x1: nx - 1, y0: 0, y1: ny - 1,
	}
	for x := range h.cxs {
		h.cxs[x] = region.Min.X + (float64(x)+0.5)*cell
	}
	for y := range h.cys {
		h.cys[y] = region.Min.Y + (float64(y)+0.5)*cell
	}
	u := 1 / float64(nx*ny)
	for i := range h.probs {
		h.probs[i] = u
	}
	return h
}

// Step advances the filter dt seconds and folds in an observation,
// returning the posterior-mean position estimate.
func (h *HMMGrid) Step(dt float64, obs geo.Point) geo.Point {
	if dt > 0 {
		h.diffuse(dt)
	}
	nx := h.nx
	den := 2 * h.measSigma * h.measSigma
	// Any cell with d2 > d2Zero has -d2/den < expZero even after
	// division rounding (the 1.0001 margin dominates a 1-ulp error), so
	// its emission weight is exactly +0 and the Exp call can be skipped.
	d2Zero := -expZero * den * 1.0001
	ex2 := h.ex2
	for x := h.x0; x <= h.x1; x++ {
		dx := h.cxs[x] - obs.X
		ex2[x] = dx * dx
	}
	// Shrink the active window to the columns/rows that can survive the
	// emission. ex2 is a discrete parabola in x, so {x: ex2[x] <= d2Zero}
	// is an interval and trimming from both ends finds it exactly; same
	// for y.
	nx0, nx1 := h.x0, h.x1
	for nx0 <= nx1 && ex2[nx0] > d2Zero {
		nx0++
	}
	for nx1 >= nx0 && ex2[nx1] > d2Zero {
		nx1--
	}
	ny0, ny1 := h.y0, h.y1
	for ny0 <= ny1 {
		dy := h.cys[ny0] - obs.Y
		if dy*dy > d2Zero {
			ny0++
		} else {
			break
		}
	}
	for ny1 >= ny0 {
		dy := h.cys[ny1] - obs.Y
		if dy*dy > d2Zero {
			ny1--
		} else {
			break
		}
	}
	// Cells of the old window that fall outside the survivable box get
	// weight exactly 0 (p *= +0 for non-negative p).
	for y := h.y0; y <= h.y1; y++ {
		row := h.probs[y*nx : (y+1)*nx]
		if y < ny0 || y > ny1 {
			for x := h.x0; x <= h.x1; x++ {
				row[x] = 0
			}
			continue
		}
		for x := h.x0; x < nx0; x++ {
			row[x] = 0
		}
		for x := nx1 + 1; x <= h.x1; x++ {
			row[x] = 0
		}
	}
	// Emission update over the surviving window, in the same row-major
	// cell order as the full-grid loop. d2 = ex2[x] + dy*dy is the same
	// two-products-one-add as the old inline DistSq.
	var sum float64
	for y := ny0; y <= ny1; y++ {
		dy := h.cys[y] - obs.Y
		dy2 := dy * dy
		row := h.probs[y*nx : (y+1)*nx]
		for x := nx0; x <= nx1; x++ {
			p := row[x]
			if p == 0 {
				// p stays +0 without the Exp call: p*e is +0 for any
				// finite weight and sum += +0 is a no-op.
				continue
			}
			d2 := ex2[x] + dy2
			if d2 > d2Zero {
				row[x] = 0
				continue
			}
			p *= math.Exp(-d2 / den)
			row[x] = p
			sum += p
		}
	}
	if sum <= 0 {
		u := 1 / float64(len(h.probs))
		for i := range h.probs {
			h.probs[i] = u
		}
		sum = 1
		nx0, nx1, ny0, ny1 = 0, nx-1, 0, h.ny-1
	}
	// Normalize and take the posterior mean. Outside the window every
	// term is +0/sum = +0 and mx += ±0 never changes the accumulator
	// (it can never be -0: it starts at +0 and only exact -0+-0 could
	// produce -0), so the restriction is bit-identical.
	var mx, my float64
	for y := ny0; y <= ny1; y++ {
		cy := h.cys[y]
		row := h.probs[y*nx : (y+1)*nx]
		for x := nx0; x <= nx1; x++ {
			p := row[x]
			if p == 0 {
				// +0/sum is +0 and mx += ±0 never changes the
				// accumulator (it starts at +0 and only -0 + -0 could
				// make it -0), so skipping zero cells is bit-identical.
				continue
			}
			p /= sum
			row[x] = p
			mx += p * h.cxs[x]
			my += p * cy
		}
	}
	h.x0, h.x1, h.y0, h.y1 = nx0, nx1, ny0, ny1
	return geo.Pt(mx, my)
}

// diffuseScratch pools the per-step kernel and intermediate grid used
// by HMMGrid.diffuse, mirroring how KalmanSmoothTrajectory pools its
// rtsStep slices: each Step would otherwise allocate a full grid copy.
type diffuseScratch struct {
	kernel []float64
	tmp    []float64
}

var diffusePool = sync.Pool{New: func() any { return new(diffuseScratch) }}

// diffuse spreads probability to neighbors with a Gaussian kernel of
// stddev speedSigma*dt, truncated at 3 sigma.
func (h *HMMGrid) diffuse(dt float64) {
	sigma := h.speedSigma * dt
	radius := int(math.Ceil(3 * sigma / h.cell))
	if radius < 1 {
		radius = 1
	}
	if radius > 6 {
		radius = 6
	}
	scr := diffusePool.Get().(*diffuseScratch)
	defer diffusePool.Put(scr)
	// Separable 1D kernel.
	if cap(scr.kernel) < 2*radius+1 {
		scr.kernel = make([]float64, 2*radius+1)
	}
	kernel := scr.kernel[:2*radius+1]
	var ksum float64
	for k := -radius; k <= radius; k++ {
		d := float64(k) * h.cell
		kernel[k+radius] = math.Exp(-d * d / (2 * sigma * sigma))
		ksum += kernel[k+radius]
	}
	for i := range kernel {
		kernel[i] /= ksum
	}
	// Horizontal then vertical pass, restricted to the active window
	// expanded by the kernel radius. A tap that lands outside the
	// window reads an exact +0 (window invariant) and a tap outside the
	// grid was skipped by the old bounds check; clamping the tap range
	// to the window drops only +0 contributions, and each surviving
	// cell still accumulates its taps in ascending-k order, so the
	// output is bit-identical to the full-grid form.
	if cap(scr.tmp) < len(h.probs) {
		scr.tmp = make([]float64, len(h.probs))
	}
	tmp := scr.tmp[:len(h.probs)]
	nx := h.nx
	x0, x1, y0, y1 := h.x0, h.x1, h.y0, h.y1
	ex0, ex1 := max(0, x0-radius), min(nx-1, x1+radius)
	ey0, ey1 := max(0, y0-radius), min(h.ny-1, y1+radius)
	if radius == 1 {
		// The common small-sigma shape (every E1 configuration lands
		// here): fully unrolled 3-tap expressions. Left-to-right
		// evaluation ((a+b)+c) matches the generic loop's
		// ((0+a)+b)+c because 0+a == a for the non-negative taps a
		// probability grid produces.
		k0, k1, k2 := kernel[0], kernel[1], kernel[2]
		for y := y0; y <= y1; y++ {
			src := h.probs[y*nx : (y+1)*nx]
			dst := tmp[y*nx : (y+1)*nx]
			if x0 == x1 {
				dst[x0] = src[x0] * k1
				if x0 > 0 {
					dst[x0-1] = src[x0] * k2
				}
				if x1 < nx-1 {
					dst[x1+1] = src[x1] * k0
				}
				continue
			}
			if ex0 < x0 {
				dst[ex0] = src[x0] * k2
			}
			lo, hi := max(x0, 1), min(x1, nx-2)
			if x0 == 0 {
				dst[0] = src[0]*k1 + src[1]*k2
			}
			for x := lo; x <= hi; x++ {
				dst[x] = src[x-1]*k0 + src[x]*k1 + src[x+1]*k2
			}
			if x1 == nx-1 {
				dst[nx-1] = src[nx-2]*k0 + src[nx-1]*k1
			}
			if ex1 > x1 {
				dst[ex1] = src[x1] * k0
			}
		}
		for y := ey0; y <= ey1; y++ {
			out := h.probs[y*nx : (y+1)*nx]
			switch {
			case y > y0 && y < y1:
				a := tmp[(y-1)*nx : y*nx]
				b := tmp[y*nx : (y+1)*nx]
				c := tmp[(y+1)*nx : (y+2)*nx]
				for x := ex0; x <= ex1; x++ {
					out[x] = a[x]*k0 + b[x]*k1 + c[x]*k2
				}
			case y < y0: // one row above the window: only the k=+1 tap
				c := tmp[y0*nx : (y0+1)*nx]
				for x := ex0; x <= ex1; x++ {
					out[x] = c[x] * k2
				}
			case y > y1: // one row below: only the k=-1 tap
				a := tmp[y1*nx : (y1+1)*nx]
				for x := ex0; x <= ex1; x++ {
					out[x] = a[x] * k0
				}
			case y0 == y1: // single-row window
				b := tmp[y*nx : (y+1)*nx]
				for x := ex0; x <= ex1; x++ {
					out[x] = b[x] * k1
				}
			case y == y0: // top row of a taller window
				b := tmp[y*nx : (y+1)*nx]
				c := tmp[(y+1)*nx : (y+2)*nx]
				for x := ex0; x <= ex1; x++ {
					out[x] = b[x]*k1 + c[x]*k2
				}
			default: // y == y1: bottom row
				a := tmp[(y-1)*nx : y*nx]
				b := tmp[y*nx : (y+1)*nx]
				for x := ex0; x <= ex1; x++ {
					out[x] = a[x]*k0 + b[x]*k1
				}
			}
		}
		h.x0, h.x1, h.y0, h.y1 = ex0, ex1, ey0, ey1
		return
	}
	for y := y0; y <= y1; y++ {
		src := h.probs[y*nx : (y+1)*nx]
		dst := tmp[y*nx : (y+1)*nx]
		for x := ex0; x <= ex1; x++ {
			kmin := max(-radius, x0-x)
			kmax := min(radius, x1-x)
			var v float64
			for k := kmin; k <= kmax; k++ {
				v += src[x+k] * kernel[k+radius]
			}
			dst[x] = v
		}
	}
	// Vertical pass, row-streaming: the valid tap rows are uniform
	// across a whole output row, so the k loop hoists out of the x loop
	// and the inner loop walks contiguous rows.
	for y := ey0; y <= ey1; y++ {
		kmin := max(-radius, y0-y)
		kmax := min(radius, y1-y)
		out := h.probs[y*nx : (y+1)*nx]
		for x := ex0; x <= ex1; x++ {
			out[x] = 0
		}
		for k := kmin; k <= kmax; k++ {
			row := tmp[(y+k)*nx : (y+k+1)*nx]
			kv := kernel[k+radius]
			for x := ex0; x <= ex1; x++ {
				out[x] += row[x] * kv
			}
		}
	}
	h.x0, h.x1, h.y0, h.y1 = ex0, ex1, ey0, ey1
}

// HMMGridTrajectory runs the grid filter over a trajectory.
func HMMGridTrajectory(tr *trajectory.Trajectory, region geo.Rect, cell, speedSigma, measSigma float64) *trajectory.Trajectory {
	out := &trajectory.Trajectory{ID: tr.ID}
	if tr.Len() == 0 {
		return out
	}
	h := NewHMMGrid(region, cell, speedSigma, measSigma)
	prevT := tr.Points[0].T
	out.Points = make([]trajectory.Point, 0, tr.Len())
	for i, p := range tr.Points {
		dt := p.T - prevT
		if i == 0 {
			dt = 0
		}
		pos := h.Step(dt, p.Pos)
		prevT = p.T
		out.Points = append(out.Points, trajectory.Point{T: p.T, Pos: pos})
	}
	return out
}
