package refine

import (
	"fmt"
	"math"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/stats"
	"sidq/internal/trajectory"
)

// denseKalman is a constant-velocity denseKalman filter over planar position
// observations: state [x y vx vy], position-only measurements. It is
// the canonical Bayes-filter instance of motion-based LR.
//
// All per-step temporaries live in a scratch block allocated once with
// the filter, so Predict/Update run allocation-free in steady state. A
// denseKalman value is not safe for concurrent use (create one per
// trajectory, as the trajectory-level helpers do).
type denseKalman struct {
	x   *stats.Matrix // 4x1 state
	p   *stats.Matrix // 4x4 covariance
	q   float64       // process-noise intensity (acceleration PSD)
	r   float64       // measurement noise stddev (meters)
	scr denseScratch
}

// denseScratch holds the constant model matrices and reusable
// temporaries for one filter.
type denseScratch struct {
	f, ft      *stats.Matrix // 4x4 transition and its transpose
	qn         *stats.Matrix // 4x4 process noise
	i4         *stats.Matrix // 4x4 identity
	t44a, t44b *stats.Matrix // 4x4 temporaries
	h          *stats.Matrix // 2x4 measurement model (constant)
	ht         *stats.Matrix // 4x2 its transpose (constant)
	hp         *stats.Matrix // 2x4 h*p
	pht, gain  *stats.Matrix // 4x2
	rm         *stats.Matrix // 2x2 measurement noise (constant)
	s, sInv    *stats.Matrix // 2x2 innovation covariance and inverse
	t22        *stats.Matrix // 2x2 inversion workspace
	y, gy      *stats.Matrix // 2x1 residual, 4x1 correction
	x1         *stats.Matrix // 4x1 temporary
}

// newDenseKalman returns a filter initialized at pos with zero velocity,
// the given process-noise intensity q (m/s^2 scale) and measurement
// noise stddev r (meters).
func newDenseKalman(pos geo.Point, q, r float64) *denseKalman {
	if q <= 0 {
		q = 1
	}
	if r <= 0 {
		r = 1
	}
	x := stats.NewMatrix(4, 1)
	x.Set(0, 0, pos.X)
	x.Set(1, 0, pos.Y)
	p := scaleBy(stats.Identity(4), 100)
	k := &denseKalman{x: x, p: p, q: q, r: r}
	s := &k.scr
	s.f = stats.NewMatrix(4, 4)
	s.ft = stats.NewMatrix(4, 4)
	s.qn = stats.NewMatrix(4, 4)
	s.i4 = stats.Identity(4)
	s.t44a = stats.NewMatrix(4, 4)
	s.t44b = stats.NewMatrix(4, 4)
	s.h = matrixFrom(2, 4,
		1, 0, 0, 0,
		0, 1, 0, 0,
	)
	s.ht = s.h.Transpose()
	s.hp = stats.NewMatrix(2, 4)
	s.pht = stats.NewMatrix(4, 2)
	s.gain = stats.NewMatrix(4, 2)
	s.rm = scaleBy(stats.Identity(2), r*r)
	s.s = stats.NewMatrix(2, 2)
	s.sInv = stats.NewMatrix(2, 2)
	s.t22 = stats.NewMatrix(2, 2)
	s.y = stats.NewMatrix(2, 1)
	s.gy = stats.NewMatrix(4, 1)
	s.x1 = stats.NewMatrix(4, 1)
	return k
}

// denseTransitionInto fills f with the constant-velocity transition for a
// dt-second step.
func denseTransitionInto(f *stats.Matrix, dt float64) {
	copy(f.Data, []float64{
		1, 0, dt, 0,
		0, 1, 0, dt,
		0, 0, 1, 0,
		0, 0, 0, 1,
	})
}

// denseProcessNoiseInto fills qn with the white-acceleration process
// noise for a dt-second step at intensity q.
func denseProcessNoiseInto(qn *stats.Matrix, dt, q float64) {
	dt2 := dt * dt
	dt3 := dt2 * dt / 3
	half := dt2 / 2
	copy(qn.Data, []float64{
		dt3, 0, half, 0,
		0, dt3, 0, half,
		half, 0, dt, 0,
		0, half, 0, dt,
	})
	for i := range qn.Data {
		qn.Data[i] *= q
	}
}

// Predict advances the state dt seconds without a measurement.
func (k *denseKalman) Predict(dt float64) {
	if dt <= 0 {
		return
	}
	s := &k.scr
	denseTransitionInto(s.f, dt)
	mulInto(s.x1, s.f, k.x)
	copyFrom(k.x, s.x1)
	// p = f*p*f' + Q, evaluated in the same order as the allocating
	// form so results stay bit-identical.
	mulInto(s.t44a, s.f, k.p)
	transposeInto(s.ft, s.f)
	mulInto(s.t44b, s.t44a, s.ft)
	denseProcessNoiseInto(s.qn, dt, k.q)
	addInto(k.p, s.t44b, s.qn)
}

// Update folds in a position observation.
func (k *denseKalman) Update(obs geo.Point) {
	s := &k.scr
	s.y.Data[0] = obs.X - k.x.At(0, 0)
	s.y.Data[1] = obs.Y - k.x.At(1, 0)
	mulInto(s.hp, s.h, k.p)
	mulInto(s.s, s.hp, s.ht)
	addInto(s.s, s.s, s.rm)
	if err := inverseInto(s.sInv, s.s, s.t22); err != nil {
		return // degenerate covariance: skip the update
	}
	mulInto(s.pht, k.p, s.ht)
	mulInto(s.gain, s.pht, s.sInv)
	mulInto(s.gy, s.gain, s.y)
	addInto(k.x, k.x, s.gy)
	// p = (I - gain*h) * p
	mulInto(s.t44a, s.gain, s.h)
	subInto(s.t44a, s.i4, s.t44a)
	mulInto(s.t44b, s.t44a, k.p)
	copyFrom(k.p, s.t44b)
}

// Step performs Predict(dt) then Update(obs) and returns the position.
func (k *denseKalman) Step(dt float64, obs geo.Point) geo.Point {
	k.Predict(dt)
	k.Update(obs)
	return k.Position()
}

// Position returns the current position estimate.
func (k *denseKalman) Position() geo.Point { return geo.Pt(k.x.At(0, 0), k.x.At(1, 0)) }

// Innovation returns the distance between a prospective observation and
// the predicted position dt seconds ahead, without mutating the filter.
// Prediction-based outlier detection uses this as its test statistic.
func (k *denseKalman) Innovation(dt float64, obs geo.Point) float64 {
	s := &k.scr
	denseTransitionInto(s.f, dt)
	pred := mulInto(s.x1, s.f, k.x)
	return obs.Dist(geo.Pt(pred.At(0, 0), pred.At(1, 0)))
}

// denseFilterTrajectory runs the filter forward over a trajectory and
// returns the filtered (causal) trajectory.
func denseFilterTrajectory(tr *trajectory.Trajectory, q, r float64) *trajectory.Trajectory {
	out := &trajectory.Trajectory{ID: tr.ID}
	if tr.Len() == 0 {
		return out
	}
	k := newDenseKalman(tr.Points[0].Pos, q, r)
	prevT := tr.Points[0].T
	out.Points = make([]trajectory.Point, 0, tr.Len())
	for i, p := range tr.Points {
		if i == 0 {
			k.Update(p.Pos)
		} else {
			k.Step(math.Max(p.T-prevT, 1e-9), p.Pos)
		}
		prevT = p.T
		out.Points = append(out.Points, trajectory.Point{T: p.T, Pos: k.Position()})
	}
	return out
}

// denseStep is one time step of the forward denseKalman pass retained for the
// backward RTS smoother. State and covariance snapshots are stored in
// inline arrays (state dimension is fixed at 4), so retaining a step
// allocates nothing beyond the pooled step slice itself.
type denseStep struct {
	xPred, xFilt [4]float64
	pPred, pFilt [16]float64
	f            [16]float64
}

// The smoother's per-call scratch (one step record per point plus the
// smoothed state/covariance buffers) is pooled: smoothing runs once
// per trajectory per pipeline attempt. denseStep holds no pointers, so
// pooled slices pin nothing between uses.
var (
	denseStepsPool  = sync.Pool{New: func() any { return new([]denseStep) }}
	denseFloatsPool = sync.Pool{New: func() any { return new([]float64) }}
)

func denseGetSteps(n int) *[]denseStep {
	p := denseStepsPool.Get().(*[]denseStep)
	if cap(*p) < n {
		*p = make([]denseStep, n)
	}
	*p = (*p)[:n]
	return p
}

func densePutSteps(p *[]denseStep) {
	denseStepsPool.Put(p)
}

func denseGetFloats(n int) *[]float64 {
	p := denseFloatsPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func densePutFloats(p *[]float64) {
	denseFloatsPool.Put(p)
}

// mat41 and mat44 wrap a scratch slice as a fixed-shape matrix view.
func mat41(d []float64) stats.Matrix { return stats.Matrix{Rows: 4, Cols: 1, Data: d} }
func mat44(d []float64) stats.Matrix { return stats.Matrix{Rows: 4, Cols: 4, Data: d} }

// denseSmoothTrajectory runs a forward pass followed by a
// Rauch-Tung-Striebel backward smoother, producing the non-causal MAP
// trajectory. This is the smoothing-based uncertainty eliminator built
// on the same motion model.
func denseSmoothTrajectory(tr *trajectory.Trajectory, q, r float64) *trajectory.Trajectory {
	n := tr.Len()
	out := &trajectory.Trajectory{ID: tr.ID}
	if n == 0 {
		return out
	}
	stepsP := denseGetSteps(n)
	defer densePutSteps(stepsP)
	steps := *stepsP
	k := newDenseKalman(tr.Points[0].Pos, q, r)
	prevT := tr.Points[0].T
	for i, p := range tr.Points {
		st := &steps[i]
		if i == 0 {
			f := mat44(st.f[:])
			identityInto(&f)
		} else {
			dt := math.Max(p.T-prevT, 1e-9)
			f := mat44(st.f[:])
			denseTransitionInto(&f, dt)
			k.Predict(dt)
		}
		copy(st.xPred[:], k.x.Data)
		copy(st.pPred[:], k.p.Data)
		k.Update(p.Pos)
		copy(st.xFilt[:], k.x.Data)
		copy(st.pFilt[:], k.p.Data)
		prevT = p.T
	}
	// Backward RTS pass. Smoothed states/covariances live in pooled
	// flat buffers viewed as 4x1 / 4x4 matrices; the loop temporaries
	// are allocated once per call.
	xsP, psP := denseGetFloats(n*4), denseGetFloats(n*16)
	defer densePutFloats(xsP)
	defer densePutFloats(psP)
	xs, ps := *xsP, *psP
	xrow := func(i int) []float64 { return xs[i*4 : (i+1)*4] }
	prow := func(i int) []float64 { return ps[i*16 : (i+1)*16] }
	copy(xrow(n-1), steps[n-1].xFilt[:])
	copy(prow(n-1), steps[n-1].pFilt[:])
	predInv := stats.NewMatrix(4, 4)
	invScratch := stats.NewMatrix(4, 4)
	ft := stats.NewMatrix(4, 4)
	c := stats.NewMatrix(4, 4)
	ct := stats.NewMatrix(4, 4)
	t44a := stats.NewMatrix(4, 4)
	t44b := stats.NewMatrix(4, 4)
	d41 := stats.NewMatrix(4, 1)
	e41 := stats.NewMatrix(4, 1)
	for i := n - 2; i >= 0; i-- {
		next := &steps[i+1]
		st := &steps[i]
		pPred := mat44(next.pPred[:])
		if err := inverseInto(predInv, &pPred, invScratch); err != nil {
			copy(xrow(i), st.xFilt[:])
			copy(prow(i), st.pFilt[:])
			continue
		}
		// c = pFilt * f' * predInv
		f := mat44(next.f[:])
		pFilt := mat44(st.pFilt[:])
		transposeInto(ft, &f)
		mulInto(t44a, &pFilt, ft)
		mulInto(c, t44a, predInv)
		// xs[i] = xFilt + c * (xs[i+1] - xPred)
		xNext := mat41(xrow(i + 1))
		xPred := mat41(next.xPred[:])
		subInto(d41, &xNext, &xPred)
		mulInto(e41, c, d41)
		xFilt := mat41(st.xFilt[:])
		xCur := mat41(xrow(i))
		addInto(&xCur, &xFilt, e41)
		// ps[i] = pFilt + c * (ps[i+1] - pPred) * c'
		pNext := mat44(prow(i + 1))
		subInto(t44a, &pNext, &pPred)
		mulInto(t44b, c, t44a)
		transposeInto(ct, c)
		mulInto(t44a, t44b, ct)
		pCur := mat44(prow(i))
		addInto(&pCur, &pFilt, t44a)
	}
	out.Points = make([]trajectory.Point, 0, n)
	for i, p := range tr.Points {
		out.Points = append(out.Points, trajectory.Point{
			T:   p.T,
			Pos: geo.Pt(xs[i*4], xs[i*4+1]),
		})
	}
	return out
}

// The matrix helpers below left internal/stats with the dense filter,
// their only caller; the oracle keeps the copies it needs, loop for
// loop, because their accumulation order is what Kalman reproduces.

func matrixFrom(rows, cols int, vals ...float64) *stats.Matrix {
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("matrixFrom %dx%d needs %d values, got %d",
			rows, cols, rows*cols, len(vals)))
	}
	m := stats.NewMatrix(rows, cols)
	copy(m.Data, vals)
	return m
}

func copyFrom(m, n *stats.Matrix) {
	mustSameShape(m, n)
	copy(m.Data, n.Data)
}

func scaleBy(m *stats.Matrix, s float64) *stats.Matrix {
	out := stats.NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] * s
	}
	return out
}

func addInto(out, a, b *stats.Matrix) *stats.Matrix {
	mustSameShape(a, b)
	mustSameShape(out, a)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

func subInto(out, a, b *stats.Matrix) *stats.Matrix {
	mustSameShape(a, b)
	mustSameShape(out, a)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

func mulInto(out, a, b *stats.Matrix) *stats.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mulInto shape mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("mulInto out is %dx%d, want %dx%d",
			out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			v := a.At(i, k)
			if v == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += v * b.At(k, j)
			}
		}
	}
	return out
}

func transposeInto(out, m *stats.Matrix) *stats.Matrix {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic(fmt.Sprintf("transposeInto out is %dx%d, want %dx%d",
			out.Rows, out.Cols, m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func identityInto(m *stats.Matrix) *stats.Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func inverseInto(out, m, scratch *stats.Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := scratch
	copyFrom(a, m)
	inv := identityInto(out)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if denseAbs(a.At(r, col)) > denseAbs(a.At(pivot, col)) {
				pivot = r
			}
		}
		if denseAbs(a.At(pivot, col)) < 1e-12 {
			return stats.ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		pv := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/pv)
			inv.Set(col, j, inv.At(col, j)/pv)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return nil
}

func swapRows(m *stats.Matrix, a, b int) {
	for j := 0; j < m.Cols; j++ {
		m.Data[a*m.Cols+j], m.Data[b*m.Cols+j] = m.Data[b*m.Cols+j], m.Data[a*m.Cols+j]
	}
}

func denseAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func mustSameShape(m, n *stats.Matrix) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, n.Rows, n.Cols))
	}
}
