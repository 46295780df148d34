// Package uncertain implements the paper's §2.2.2 Uncertainty
// Elimination task family: reducing imprecise measurements and imputing
// unknown values at unsampled points.
//
// Trajectory UE follows the tutorial's three categories:
//   - calibration-based: aligning noisy points with reference anchors;
//   - inference-based: HMM map matching plus shortest-path route
//     recovery on a road network;
//   - smoothing-based: moving-average and exponential smoothing
//     (Kalman/RTS smoothing lives in package refine, built on the same
//     motion model).
//
// STID UE provides spatiotemporal interpolation (IDW, Gaussian kernel,
// trend surface + residual) and multi-source fusion with per-source
// reliability estimation.
package uncertain

import (
	"errors"
	"fmt"
	"math"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/trajectory"
)

// ErrNoCandidates is returned by MapMatch when a point has no nearby
// road candidates.
var ErrNoCandidates = errors.New("uncertain: no road candidates")

// CalibrateToAnchors aligns each trajectory point with its nearest
// reference anchor: points within radius of an anchor are pulled toward
// it by factor alpha in [0, 1]. Anchors typically come from a map (road
// intersections, doorways) or from dense historical trajectories. This
// is the calibration-based UE approach.
func CalibrateToAnchors(tr *trajectory.Trajectory, anchors []geo.Point, radius, alpha float64) *trajectory.Trajectory {
	out := tr.Clone()
	if len(anchors) == 0 || alpha <= 0 {
		return out
	}
	if alpha > 1 {
		alpha = 1
	}
	for i, p := range out.Points {
		best, bestD := geo.Point{}, math.Inf(1)
		for _, a := range anchors {
			if d := a.Dist(p.Pos); d < bestD {
				best, bestD = a, d
			}
		}
		if bestD <= radius {
			out.Points[i].Pos = p.Pos.Lerp(best, alpha)
		}
	}
	return out
}

// MovingAverage smooths positions with a centered window of the given
// half-width (in samples): each point becomes the mean of up to
// 2*halfWidth+1 neighbors. This is the simplest temporal-autocorrelation
// smoother.
func MovingAverage(tr *trajectory.Trajectory, halfWidth int) *trajectory.Trajectory {
	out := tr.Clone()
	if halfWidth <= 0 || tr.Len() < 3 {
		return out
	}
	for i := range tr.Points {
		var sx, sy float64
		var n int
		for w := -halfWidth; w <= halfWidth; w++ {
			j := i + w
			if j < 0 || j >= tr.Len() {
				continue
			}
			sx += tr.Points[j].Pos.X
			sy += tr.Points[j].Pos.Y
			n++
		}
		out.Points[i].Pos = geo.Pt(sx/float64(n), sy/float64(n))
	}
	return out
}

// ExponentialSmooth applies first-order exponential smoothing with
// factor alpha in (0, 1]: small alpha smooths more.
func ExponentialSmooth(tr *trajectory.Trajectory, alpha float64) *trajectory.Trajectory {
	out := tr.Clone()
	if tr.Len() == 0 {
		return out
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	cur := tr.Points[0].Pos
	for i, p := range tr.Points {
		cur = cur.Lerp(p.Pos, alpha)
		out.Points[i].Pos = cur
	}
	return out
}

// MatchOptions configures HMM map matching.
type MatchOptions struct {
	Candidates     int     // road candidates per point (default 4)
	EmissionSigma  float64 // GPS error scale in meters (default 10)
	TransitionBeta float64 // route-vs-chord mismatch tolerance in meters (default 30)
}

// MatchResult is the output of MapMatch: the Viterbi-optimal snap per
// input point, the deduplicated edge route, and the recovered
// (densified, network-constrained) trajectory.
type MatchResult struct {
	Snaps     []roadnet.Snap
	Route     []roadnet.EdgeID
	Recovered *trajectory.Trajectory
}

// MapMatch aligns a noisy, possibly sparse trajectory to the road
// network with an HMM (emission: snap distance; transition: agreement
// between network distance and straight-line movement) solved by
// Viterbi, then reconstructs the full path between matched points with
// shortest-path inference. This is the inference-based UE approach of
// the route-recovery literature.
func MapMatch(g *roadnet.Graph, snapper *roadnet.Snapper, tr *trajectory.Trajectory, opt MatchOptions) (MatchResult, error) {
	if tr.Len() == 0 {
		return MatchResult{}, fmt.Errorf("uncertain: empty trajectory: %w", ErrNoCandidates)
	}
	if opt.Candidates <= 0 {
		opt.Candidates = 4
	}
	if opt.EmissionSigma <= 0 {
		opt.EmissionSigma = 10
	}
	if opt.TransitionBeta <= 0 {
		opt.TransitionBeta = 30
	}
	n := tr.Len()
	cands := make([][]roadnet.Snap, n)
	for i, p := range tr.Points {
		cs := snapper.KNearest(p.Pos, opt.Candidates)
		if len(cs) == 0 {
			return MatchResult{}, fmt.Errorf("uncertain: point %d at %v: %w", i, p.Pos, ErrNoCandidates)
		}
		cands[i] = cs
	}
	// Viterbi over candidate snaps. Transition rows come from the
	// engine's bounded one-to-many search: one truncated Dijkstra per
	// previous candidate instead of K single-pair searches, with the
	// route cache deduplicating repeated edge pairs across points.
	eng := g.Engine()
	logp := make([][]float64, n)
	back := make([][]int, n)
	for i := range logp {
		logp[i] = make([]float64, len(cands[i]))
		back[i] = make([]int, len(cands[i]))
	}
	viterbiColumn(nil, nil, cands[0], 0, opt, logp[0], back[0])
	var ndBuf []float64 // flattened K_prev x K_cur network-distance rows
	for i := 1; i < n; i++ {
		straight := tr.Points[i-1].Pos.Dist(tr.Points[i].Pos)
		nd := transitionRows(eng, cands[i-1], cands[i], &ndBuf)
		viterbiColumn(logp[i-1], nd, cands[i], straight, opt, logp[i], back[i])
	}
	// Backtrack.
	snaps := make([]roadnet.Snap, n)
	j := argmax(logp[n-1])
	for i := n - 1; i >= 0; i-- {
		snaps[i] = cands[i][j]
		j = back[i][j]
	}
	route := buildRoute(g, snaps)
	recovered := recoverTrajectory(g, tr, snaps)
	return MatchResult{Snaps: snaps, Route: route, Recovered: recovered}, nil
}

// viterbiColumn is one lattice step, shared by MapMatch and
// OnlineMatcher.Push: given the previous column's log-probabilities and
// nd, the flattened |prev| x |cur| network distances, it fills row[j]
// with the best log-probability of ending in cur[j] and back[j] with
// the previous state it came through (opt's defaults already applied).
//
// A column no transition reaches starts the HMM: emission only, every
// back-pointer to the previous column's best state. That is the first
// column (no previous state: prevRow and nd nil) and, equally, a hop
// between disconnected components or a gap the speed gate let through —
// which would otherwise leave row, and through -Inf + x every later
// column, at -Inf, and the matcher silently snapping to candidate 0 for
// the rest of the stream.
func viterbiColumn(prevRow, nd []float64, cur []roadnet.Snap, straight float64, opt MatchOptions, row []float64, back []int) {
	sigma2 := 2 * opt.EmissionSigma * opt.EmissionSigma
	dead := true
	for j, cj := range cur {
		em := -cj.Dist * cj.Dist / sigma2
		best, bestK := math.Inf(-1), 0
		for k, pv := range prevRow {
			trans := transLogProbFromDist(nd[k*len(cur)+j], straight, opt.TransitionBeta)
			if v := pv + trans; v > best {
				best, bestK = v, k
			}
		}
		row[j], back[j] = best+em, bestK
		dead = dead && math.IsInf(best, -1)
	}
	if !dead {
		return
	}
	bestK := argmax(prevRow)
	for j, cj := range cur {
		row[j], back[j] = -cj.Dist*cj.Dist/sigma2, bestK
	}
}

// argmax returns the index of row's largest value, the first of equals
// (0 for a row of -Inf).
func argmax(row []float64) int {
	best, bestV := 0, math.Inf(-1)
	for j, v := range row {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

// transitionRows fills (and returns) the flattened |prev| x |cur|
// network-distance matrix between candidate snaps, reusing *buf across
// lattice steps. Row k holds the distances from prev[k] to every
// current candidate, computed by one bounded one-to-many sweep.
func transitionRows(eng *roadnet.Engine, prev, cur []roadnet.Snap, buf *[]float64) []float64 {
	*buf = resize(*buf, len(prev)*len(cur))
	nd := *buf
	for k, ck := range prev {
		eng.SnapDists(ck, cur, math.Inf(1), nd[k*len(cur):(k+1)*len(cur)])
	}
	return nd
}

// transLogProbFromDist scores a transition given its network distance
// and the observed straight-line displacement: plausible transitions
// have network distance close to the chord length; +Inf (no route)
// maps to log probability -Inf.
func transLogProbFromDist(nd, straight, beta float64) float64 {
	if math.IsInf(nd, 1) {
		return math.Inf(-1)
	}
	return -math.Abs(nd-straight) / beta
}

// buildRoute returns the deduplicated edge sequence connecting the
// snapped points, filling gaps with shortest paths.
func buildRoute(g *roadnet.Graph, snaps []roadnet.Snap) []roadnet.EdgeID {
	var route []roadnet.EdgeID
	push := func(e roadnet.EdgeID) {
		if len(route) == 0 || route[len(route)-1] != e {
			route = append(route, e)
		}
	}
	for i, s := range snaps {
		if i == 0 {
			push(s.Edge)
			continue
		}
		prev := snaps[i-1]
		if prev.Edge == s.Edge {
			continue
		}
		pe := g.Edge(prev.Edge)
		se := g.Edge(s.Edge)
		if p, err := g.ShortestPath(pe.To, se.From); err == nil {
			for _, e := range p.Edges {
				push(e)
			}
		}
		push(s.Edge)
	}
	return route
}

// recoverTrajectory densifies the matched trajectory: between
// consecutive snapped points it walks the network shortest path,
// emitting intermediate vertices with linearly interpolated timestamps.
func recoverTrajectory(g *roadnet.Graph, tr *trajectory.Trajectory, snaps []roadnet.Snap) *trajectory.Trajectory {
	out := &trajectory.Trajectory{ID: tr.ID}
	for i, s := range snaps {
		if i == 0 {
			out.Points = append(out.Points, trajectory.Point{T: tr.Points[0].T, Pos: s.Pos})
			continue
		}
		prev := snaps[i-1]
		t0, t1 := tr.Points[i-1].T, tr.Points[i].T
		geoPath := pathGeometry(g, prev, s)
		if len(geoPath) > 2 {
			total := geoPath.Length()
			walked := 0.0
			for v := 1; v < len(geoPath)-1; v++ {
				walked += geoPath[v-1].Dist(geoPath[v])
				frac := 0.5
				if total > 0 {
					frac = walked / total
				}
				out.Points = append(out.Points, trajectory.Point{
					T:   t0 + (t1-t0)*frac,
					Pos: geoPath[v],
				})
			}
		}
		out.Points = append(out.Points, trajectory.Point{T: t1, Pos: s.Pos})
	}
	return out
}

// pathGeometry returns the polyline from snap a to snap b along the
// network (straight chord if no route exists).
func pathGeometry(g *roadnet.Graph, a, b roadnet.Snap) geo.Polyline {
	if a.Edge == b.Edge && b.Param >= a.Param {
		return geo.Polyline{a.Pos, b.Pos}
	}
	ae := g.Edge(a.Edge)
	be := g.Edge(b.Edge)
	p, err := g.ShortestPath(ae.To, be.From)
	if err != nil {
		return geo.Polyline{a.Pos, b.Pos}
	}
	pl := geo.Polyline{a.Pos}
	for _, nid := range p.Nodes {
		pl = append(pl, g.Node(nid).Pos)
	}
	pl = append(pl, b.Pos)
	return pl
}

// RouteAccuracy compares a recovered edge route against the ground
// truth and returns the Jaccard similarity of their edge sets — the
// standard route-recovery quality measure.
func RouteAccuracy(got, want []roadnet.EdgeID) float64 {
	if len(got) == 0 && len(want) == 0 {
		return 1
	}
	gs := map[roadnet.EdgeID]bool{}
	for _, e := range got {
		gs[e] = true
	}
	ws := map[roadnet.EdgeID]bool{}
	for _, e := range want {
		ws[e] = true
	}
	inter := 0
	for e := range gs {
		if ws[e] {
			inter++
		}
	}
	union := len(gs) + len(ws) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
