package uncertain

import (
	"math"

	"sidq/internal/roadnet"
	"sidq/internal/trajectory"
)

// OnlineMatcher performs streaming HMM map matching with a fixed
// decision lag: points are pushed one at a time, and once the Viterbi
// lattice is lag steps deep the matcher commits the oldest point's
// snap (decoded from the current best path). This is the online
// variant of MapMatch for edge deployments where trajectories arrive
// as streams and bounded-latency output is required.
type OnlineMatcher struct {
	g       *roadnet.Graph
	snapper *roadnet.Snapper
	opt     MatchOptions
	lag     int

	pts   []trajectory.Point
	cands [][]roadnet.Snap
	logp  [][]float64
	back  [][]int
	ndBuf []float64 // reusable transition-distance rows

	// The storage of the column committed last, which the next Push
	// fills, and the slice Push returns: with a steady lag the lattice
	// allocates nothing.
	freeCands []roadnet.Snap
	freeLogp  []float64
	freeBack  []int
	out       [1]Matched
}

// NewOnlineMatcher returns a matcher that commits each point after
// seeing lag further points (lag >= 0; 0 commits greedily).
func NewOnlineMatcher(g *roadnet.Graph, snapper *roadnet.Snapper, opt MatchOptions, lag int) *OnlineMatcher {
	if opt.Candidates <= 0 {
		opt.Candidates = 4
	}
	if opt.EmissionSigma <= 0 {
		opt.EmissionSigma = 10
	}
	if opt.TransitionBeta <= 0 {
		opt.TransitionBeta = 30
	}
	if lag < 0 {
		lag = 0
	}
	return &OnlineMatcher{g: g, snapper: snapper, opt: opt, lag: lag}
}

// Matched is one committed output point.
type Matched struct {
	Point trajectory.Point
	Snap  roadnet.Snap
}

// Push feeds the next point and returns any snaps committed by it
// (zero or one under normal operation). Points with no road candidates
// are skipped silently. The returned slice is the matcher's: it is
// valid until the next Push or Flush on m, so copy out what outlives
// that.
func (m *OnlineMatcher) Push(p trajectory.Point) []Matched {
	cs := m.snapper.AppendKNearest(m.freeCands[:0], p.Pos, m.opt.Candidates)
	if len(cs) == 0 {
		return nil
	}
	row := resize(m.freeLogp, len(cs))
	backRow := resize(m.freeBack, len(cs))
	m.freeCands, m.freeLogp, m.freeBack = nil, nil, nil // the lattice's now
	if last := len(m.pts) - 1; last < 0 {
		viterbiColumn(nil, nil, cs, 0, m.opt, row, backRow)
	} else {
		nd := transitionRows(m.g.Engine(), m.cands[last], cs, &m.ndBuf)
		viterbiColumn(m.logp[last], nd, cs, m.pts[last].Pos.Dist(p.Pos), m.opt, row, backRow)
	}
	m.pts = append(m.pts, p)
	m.cands = append(m.cands, cs)
	m.logp = append(m.logp, row)
	m.back = append(m.back, backRow)
	if len(m.pts) > m.lag {
		m.out[0] = m.commitOldest()
		return m.out[:]
	}
	return nil
}

// commitOldest decodes the best current path and emits the oldest
// lattice column, then drops it, keeping its storage for the next Push.
func (m *OnlineMatcher) commitOldest() Matched {
	// Backtrack from the best terminal state to the oldest column.
	last := len(m.logp) - 1
	j := argmax(m.logp[last])
	for i := last; i > 0; i-- {
		j = m.back[i][j]
	}
	out := Matched{Point: m.pts[0], Snap: m.cands[0][j]}
	// Re-root the lattice at column 1: keep only the paths passing
	// through the committed state.
	if len(m.pts) > 1 {
		for k := range m.logp[1] {
			if m.back[1][k] != j {
				m.logp[1][k] = math.Inf(-1)
			}
		}
	}
	// Shift down instead of re-slicing, so the appends in Push stay
	// inside the capacity the first lag+1 of them grew.
	m.freeCands, m.freeLogp, m.freeBack = m.cands[0], m.logp[0], m.back[0]
	m.pts = m.pts[:copy(m.pts, m.pts[1:])]
	m.cands = m.cands[:copy(m.cands, m.cands[1:])]
	m.logp = m.logp[:copy(m.logp, m.logp[1:])]
	m.back = m.back[:copy(m.back, m.back[1:])]
	return out
}

// resize returns s with length n, reallocating only when n exceeds its
// capacity; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Flush commits all buffered points in order.
func (m *OnlineMatcher) Flush() []Matched {
	var out []Matched
	for len(m.pts) > 0 {
		out = append(out, m.commitOldest())
	}
	return out
}

// Pending returns the number of buffered (uncommitted) points.
func (m *OnlineMatcher) Pending() int { return len(m.pts) }
