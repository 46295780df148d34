package uncertain

import (
	"math"

	"sidq/internal/geo"
	"sidq/internal/stid"
)

// CoTraining implements semi-supervised field estimation in the spirit
// of the co-training air-quality work the paper surveys: two
// conditionally independent views — a *spatial* view (neighborhood
// kernel over labeled points) and a *temporal* view (per-location
// history trend) — take turns labeling the unlabeled points each is
// most confident about, growing the labeled set without ground truth.
//
// Labeled readings carry measured values; query points are unlabeled
// location-time pairs. Rounds controls how many pseudo-labeling
// iterations run; addPerRound how many new pseudo-labels each view
// contributes per round.
type CoTraining struct {
	SpaceSigma  float64 // spatial view bandwidth (default 150)
	TimeSigma   float64 // temporal view bandwidth (default 900)
	Rounds      int     // default 3
	AddPerRound int     // default 10
}

// Estimate returns estimates for the queries, co-training on the way:
// the returned slice aligns with queries; ok=false entries had no
// support in either view.
func (c CoTraining) Estimate(labeled []stid.Reading, queries []stid.Reading) ([]float64, []bool) {
	spaceSigma := c.SpaceSigma
	if spaceSigma <= 0 {
		spaceSigma = 150
	}
	timeSigma := c.TimeSigma
	if timeSigma <= 0 {
		timeSigma = 900
	}
	rounds := c.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	add := c.AddPerRound
	if add <= 0 {
		add = 10
	}

	pool := append([]stid.Reading(nil), labeled...)
	pseudo := make([]stid.Reading, len(queries))
	done := make([]bool, len(queries))

	// The two views: spatial ignores time, temporal weights time heavily
	// and space loosely (same sensor / same place histories dominate).
	spatialView := func(q stid.Reading, data []stid.Reading) (float64, float64) {
		return kernelEstimate(q, data, spaceSigma, math.Inf(1))
	}
	temporalView := func(q stid.Reading, data []stid.Reading) (float64, float64) {
		return kernelEstimate(q, data, 4*spaceSigma, timeSigma)
	}

	for round := 0; round < rounds; round++ {
		for _, view := range []func(stid.Reading, []stid.Reading) (float64, float64){spatialView, temporalView} {
			// Score all remaining queries by this view's confidence.
			var cands []coTrainCand
			for i, q := range queries {
				if done[i] {
					continue
				}
				if v, conf := view(q, pool); conf > 0 {
					cands = append(cands, coTrainCand{i, v, conf})
				}
			}
			// Pseudo-label the most confident ones.
			sortScored(cands)
			for k := 0; k < add && k < len(cands); k++ {
				i := cands[k].idx
				pseudo[i] = queries[i]
				pseudo[i].Value = cands[k].val
				pool = append(pool, pseudo[i])
				done[i] = true
			}
		}
	}
	// Final pass: answer every query from the enlarged pool.
	out := make([]float64, len(queries))
	ok := make([]bool, len(queries))
	for i, q := range queries {
		if done[i] {
			out[i] = pseudo[i].Value
			ok[i] = true
			continue
		}
		if v, conf := kernelEstimate(q, pool, spaceSigma, timeSigma); conf > 0 {
			out[i] = v
			ok[i] = true
		}
	}
	return out, ok
}

// kernelEstimate returns the kernel-weighted value and total weight
// (confidence) of q against data.
func kernelEstimate(q stid.Reading, data []stid.Reading, spaceSigma, timeSigma float64) (float64, float64) {
	var num, den float64
	for _, r := range data {
		w := math.Exp(-r.Pos.DistSq(q.Pos) / (2 * spaceSigma * spaceSigma))
		if !math.IsInf(timeSigma, 1) && timeSigma > 0 {
			dt := r.T - q.T
			w *= math.Exp(-dt * dt / (2 * timeSigma * timeSigma))
		}
		num += w * r.Value
		den += w
	}
	if den < 1e-12 {
		return 0, 0
	}
	return num / den, den
}

// coTrainCand is a pseudo-label candidate with its view confidence.
type coTrainCand struct {
	idx  int
	val  float64
	conf float64
}

func sortScored(s []coTrainCand) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].conf > s[j-1].conf; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TransferTrend implements transfer learning for STID interpolation:
// the large-scale trend surface fitted in a data-rich source region is
// reused as the prior mean in a data-poor target region, where only
// the residuals are learned from the few local sensors. This is the
// borrow-knowledge-from-related-domains scheme the paper's
// decision-making section surveys, applied to field estimation.
type TransferTrend struct {
	source *TrendResidual
	local  GaussianKernel
	shift  float64 // estimated source->target level offset
}

// NewTransferTrend fits the source trend and calibrates it to the
// target's few labeled readings.
func NewTransferTrend(source []stid.Reading, target []stid.Reading, spaceSigma float64) *TransferTrend {
	if spaceSigma <= 0 {
		spaceSigma = 150
	}
	t := &TransferTrend{source: NewTrendResidual(source, 2, 0)}
	// Level shift: mean difference between target labels and the source
	// trend's prediction at those points.
	var diffs []float64
	residuals := make([]stid.Reading, 0, len(target))
	for _, r := range target {
		if base, ok := t.source.Estimate(r.Pos, r.T); ok {
			diffs = append(diffs, r.Value-base)
		}
	}
	var shift float64
	for _, d := range diffs {
		shift += d
	}
	if len(diffs) > 0 {
		shift /= float64(len(diffs))
	}
	t.shift = shift
	for _, r := range target {
		if base, ok := t.source.Estimate(r.Pos, r.T); ok {
			rr := r
			rr.Value = r.Value - base - shift
			residuals = append(residuals, rr)
		}
	}
	t.local = GaussianKernel{Readings: residuals, SpaceSigma: spaceSigma}
	return t
}

// Estimate interpolates in the target region.
func (t *TransferTrend) Estimate(pos geo.Point, tm float64) (float64, bool) {
	base, ok := t.source.Estimate(pos, tm)
	if !ok {
		return 0, false
	}
	res, okR := t.local.Estimate(pos, tm)
	if !okR {
		res = 0
	}
	return base + t.shift + res, true
}

// MultiTaskTrend jointly estimates several correlated field tasks
// (e.g. PM2.5 and PM10 surfaces) under the latent-field multi-task
// model v_task = a_task * f + b_task + noise: the data-richest task
// anchors the latent field f, and every task calibrates a linear head
// against it plus a local residual kernel. Data-poor tasks borrow the
// anchor's spatial structure — the multi-task learning scheme the
// paper surveys for contending with label scarcity.
type MultiTaskTrend struct {
	latent *TrendResidual
	tasks  map[string]*taskHead
}

// taskHead is one task's calibration against the latent field.
type taskHead struct {
	scale, offset float64
	local         GaussianKernel
}

// NewMultiTaskTrend fits the joint model; tasksData maps task name to
// its labeled readings. The task with the most readings anchors the
// latent field.
func NewMultiTaskTrend(tasksData map[string][]stid.Reading, spaceSigma float64) *MultiTaskTrend {
	if spaceSigma <= 0 {
		spaceSigma = 150
	}
	m := &MultiTaskTrend{tasks: map[string]*taskHead{}}
	// Anchor: richest task (name-ordered tie-break for determinism).
	anchor := ""
	for name, data := range tasksData {
		if anchor == "" || len(data) > len(tasksData[anchor]) ||
			(len(data) == len(tasksData[anchor]) && name < anchor) {
			anchor = name
		}
	}
	if anchor == "" {
		m.latent = NewTrendResidual(nil, 2, 0)
		return m
	}
	m.latent = NewTrendResidual(tasksData[anchor], 2, 0)
	for name, data := range tasksData {
		var xs, ys []float64
		for _, r := range data {
			if f, ok := m.latent.Estimate(r.Pos, r.T); ok {
				xs = append(xs, f)
				ys = append(ys, r.Value)
			}
		}
		head := &taskHead{scale: 1}
		if n := float64(len(xs)); n >= 2 {
			var mx, my float64
			for i := range xs {
				mx += xs[i]
				my += ys[i]
			}
			mx /= n
			my /= n
			var cov, varX float64
			for i := range xs {
				cov += (xs[i] - mx) * (ys[i] - my)
				varX += (xs[i] - mx) * (xs[i] - mx)
			}
			if varX > 1e-9 {
				head.scale = cov / varX
				head.offset = my - head.scale*mx
			} else {
				head.scale = 0
				head.offset = my
			}
		} else if len(ys) == 1 {
			head.scale = 0
			head.offset = ys[0]
		}
		var residuals []stid.Reading
		for _, r := range data {
			if f, ok := m.latent.Estimate(r.Pos, r.T); ok {
				rr := r
				rr.Value = r.Value - (f*head.scale + head.offset)
				residuals = append(residuals, rr)
			}
		}
		head.local = GaussianKernel{Readings: residuals, SpaceSigma: spaceSigma}
		m.tasks[name] = head
	}
	return m
}

// EstimateTask returns the joint model's estimate for one task at
// (pos, tm); ok is false for unknown tasks or unreachable queries.
func (m *MultiTaskTrend) EstimateTask(task string, pos geo.Point, tm float64) (float64, bool) {
	head, okT := m.tasks[task]
	if !okT {
		return 0, false
	}
	f, ok := m.latent.Estimate(pos, tm)
	if !ok {
		return 0, false
	}
	res, okR := head.local.Estimate(pos, tm)
	if !okR {
		res = 0
	}
	return f*head.scale + head.offset + res, true
}
