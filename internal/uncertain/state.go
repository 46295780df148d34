package uncertain

// Snapshot/restore support for online map matching. Byte-identical
// session recovery needs the full Viterbi lattice: commitOldest
// re-roots log-probabilities in place, so re-pushing the pending points
// into a fresh matcher would NOT reproduce the same future commits.
// The snapshot therefore carries the lattice columns verbatim.

import (
	"sidq/internal/roadnet"
	"sidq/internal/trajectory"
)

// MatcherState is an OnlineMatcher's lattice: one column per pending
// point, and in column i the candidates, their log-probabilities and
// their back-pointers into column i-1, index for index. Graph, snapper,
// options, and lag are reconstruction inputs, not part of the state:
// they come from the session's configuration.
type MatcherState struct {
	Pts   []trajectory.Point
	Cands [][]roadnet.Snap
	Logp  [][]float64
	Back  [][]int
}

// State returns the pending lattice without copying it: the slices are
// the matcher's own, valid until the next Push or Flush, and are only
// to be read.
func (m *OnlineMatcher) State() MatcherState {
	return MatcherState{Pts: m.pts, Cands: m.cands, Logp: m.logp, Back: m.back}
}

// NewOnlineMatcherFromState rebuilds a matcher whose future Push and
// Flush outputs are identical to the matcher State was called on,
// given the same configuration it was built with. The lattice is
// copied; st keeps no hold on it.
func NewOnlineMatcherFromState(g *roadnet.Graph, snapper *roadnet.Snapper, opt MatchOptions, lag int, st MatcherState) *OnlineMatcher {
	m := NewOnlineMatcher(g, snapper, opt, lag)
	m.pts = append([]trajectory.Point(nil), st.Pts...)
	m.cands = make([][]roadnet.Snap, len(st.Cands))
	for i := range st.Cands {
		m.cands[i] = append([]roadnet.Snap(nil), st.Cands[i]...)
	}
	m.logp = make([][]float64, len(st.Logp))
	for i := range st.Logp {
		m.logp[i] = append([]float64(nil), st.Logp[i]...)
	}
	m.back = make([][]int, len(st.Back))
	for i := range st.Back {
		m.back[i] = append([]int(nil), st.Back[i]...)
	}
	return m
}
