package uncertain

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// refOnlineMatcher is the OnlineMatcher this package had before Push
// recycled its columns, kept as the reference: a fresh candidate slice,
// log-probability row and back-pointer row per point, a fresh result
// slice per commit, columns dropped by re-slicing. It has no restart
// for a dead column; deadColumns counts the ones it met so a comparison
// can rule them out.
type refOnlineMatcher struct {
	g       *roadnet.Graph
	snapper *roadnet.Snapper
	opt     MatchOptions
	lag     int

	pts   []trajectory.Point
	cands [][]roadnet.Snap
	logp  [][]float64
	back  [][]int
	ndBuf []float64

	deadColumns int
}

func (m *refOnlineMatcher) Push(p trajectory.Point) []Matched {
	cs := m.snapper.KNearest(p.Pos, m.opt.Candidates)
	if len(cs) == 0 {
		return nil
	}
	sigma2 := 2 * m.opt.EmissionSigma * m.opt.EmissionSigma
	row := make([]float64, len(cs))
	backRow := make([]int, len(cs))
	if len(m.pts) == 0 {
		for j, c := range cs {
			row[j] = -c.Dist * c.Dist / sigma2
		}
	} else {
		prev := m.pts[len(m.pts)-1]
		straight := prev.Pos.Dist(p.Pos)
		prevRow := m.logp[len(m.logp)-1]
		prevCands := m.cands[len(m.cands)-1]
		nd := transitionRows(m.g.Engine(), prevCands, cs, &m.ndBuf)
		dead := true
		for j, cj := range cs {
			em := -cj.Dist * cj.Dist / sigma2
			best, bestK := math.Inf(-1), 0
			for k := range prevCands {
				trans := transLogProbFromDist(nd[k*len(cs)+j], straight, m.opt.TransitionBeta)
				if v := prevRow[k] + trans; v > best {
					best, bestK = v, k
				}
			}
			row[j] = best + em
			backRow[j] = bestK
			dead = dead && math.IsInf(row[j], -1)
		}
		if dead {
			m.deadColumns++
		}
	}
	m.pts = append(m.pts, p)
	m.cands = append(m.cands, cs)
	m.logp = append(m.logp, row)
	m.back = append(m.back, backRow)
	if len(m.pts) > m.lag {
		return []Matched{m.commitOldest()}
	}
	return nil
}

func (m *refOnlineMatcher) commitOldest() Matched {
	last := len(m.logp) - 1
	bestJ, bestV := 0, math.Inf(-1)
	for j, v := range m.logp[last] {
		if v > bestV {
			bestJ, bestV = j, v
		}
	}
	j := bestJ
	for i := last; i > 0; i-- {
		j = m.back[i][j]
	}
	out := Matched{Point: m.pts[0], Snap: m.cands[0][j]}
	if len(m.pts) > 1 {
		for k := range m.logp[1] {
			if m.back[1][k] != j {
				m.logp[1][k] = math.Inf(-1)
			}
		}
	}
	m.pts = m.pts[1:]
	m.cands = m.cands[1:]
	m.logp = m.logp[1:]
	m.back = m.back[1:]
	return out
}

func (m *refOnlineMatcher) Flush() []Matched {
	var out []Matched
	for len(m.pts) > 0 {
		out = append(out, m.commitOldest())
	}
	return out
}

func gobBytes(t *testing.T, st MatcherState) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOnlineMatcherMatchesCopyingReference feeds 40 noisy sources of
// 600 fixes each to the recycling matcher and to the copying one it
// replaced: every commit is the same value and, twice every 37 pushes,
// the lattice a snapshot would carry is the same (compared as gob bytes,
// which treat a nil and an empty column alike). Mid-stream
// both are flushed, so a first column lands on recycled storage, and
// later the recycling matcher is swapped for one restored from its own
// snapshot, so restored storage is recycled too. No column of these streams is
// dead, so the restart in viterbiColumn is not what is compared.
func TestOnlineMatcherMatchesCopyingReference(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 40, NY: 40, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 41})
	snapper := roadnet.NewSnapper(g, 100)
	const lag, sources, fixes = 5, 40, 600
	trips := simulate.Trips(g, simulate.TripOptions{NumObjects: sources, MinHops: 56, Speed: 10, SampleInterval: 1, Seed: 42})
	opt := MatchOptions{}
	for i, trip := range trips {
		noisy := simulate.AddGaussianNoise(trip, 5, int64(43+i))
		if noisy.Len() < fixes {
			t.Fatalf("source %d has %d fixes, want >= %d", i, noisy.Len(), fixes)
		}
		m := NewOnlineMatcher(g, snapper, opt, lag)
		ref := &refOnlineMatcher{g: g, snapper: snapper, opt: m.opt, lag: lag}
		check := func(n int, got, want []Matched) {
			if len(got) != len(want) {
				t.Fatalf("source %d push %d: %d commits, reference %d", i, n, len(got), len(want))
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("source %d push %d: committed %+v, reference %+v", i, n, got[c], want[c])
				}
			}
		}
		for n, p := range noisy.Points[:fixes] {
			check(n, m.Push(p), ref.Push(p))
			if n == 37*4 { // the next column is a first one, on recycled storage
				check(n, m.Flush(), ref.Flush())
			}
			if n%37 < 2 || n == fixes-1 {
				st := m.State()
				want := MatcherState{Pts: ref.pts, Cands: ref.cands, Logp: ref.logp, Back: ref.back}
				if !bytes.Equal(gobBytes(t, st), gobBytes(t, want)) {
					t.Fatalf("source %d push %d: MatcherState differs from the reference's\n got %+v\nwant %+v", i, n, st, want)
				}
				if n == 37*8 {
					m = NewOnlineMatcherFromState(g, snapper, opt, lag, st)
				}
			}
		}
		check(fixes, m.Flush(), ref.Flush())
		if ref.deadColumns != 0 {
			t.Fatalf("source %d: %d dead columns; this comparison needs none", i, ref.deadColumns)
		}
	}
}

// TestOnlineMatcherWarmPushAllocFree pins Push's allocation contract:
// past the first lag+1 points the column it commits is the column it
// fills next, the result slice is the matcher's, and nothing is
// allocated — the route cache being warm after the first pass.
func TestOnlineMatcherWarmPushAllocFree(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 10, NY: 10, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 3})
	snapper := roadnet.NewSnapper(g, 100)
	trip := simulate.Trips(g, simulate.TripOptions{NumObjects: 1, MinHops: 12, Speed: 12, SampleInterval: 1, Seed: 4})[0]
	noisy := simulate.AddGaussianNoise(trip, 5, 5)
	m := NewOnlineMatcher(g, snapper, MatchOptions{}, 5)
	pass := func() {
		for _, p := range noisy.Points {
			if out := m.Push(p); len(out) > 1 {
				t.Fatalf("Push committed %d points", len(out))
			}
		}
	}
	pass() // grows the lattice, the scratch pools and the route cache
	allocs := testing.AllocsPerRun(5, pass)
	if allocs != 0 && !israce.Enabled {
		t.Errorf("a warm pass of %d pushes allocated %v times, want 0", noisy.Len(), allocs)
	}
}

// twoIslands is a street A, and 1 km north of it and joined to it by
// nothing, two parallel streets P (y=1000) and Q (y=1030) that meet
// only at their west end: from P at x=450 the way onto Q is a 900 m
// loop.
func twoIslands() *roadnet.Graph {
	g := roadnet.NewGraph()
	street := func(y float64) []roadnet.NodeID {
		var ns []roadnet.NodeID
		for x := 0.0; x <= 600; x += 100 {
			ns = append(ns, g.AddNode(geo.Pt(x, y)))
			if n := len(ns); n > 1 {
				g.AddBidirectional(ns[n-2], ns[n-1], 14)
			}
		}
		return ns
	}
	street(0)
	p, q := street(1000), street(1030)
	g.AddBidirectional(p[0], q[0], 14)
	return g
}

// hopStream drives east along A, hops to P (no route: the step that
// used to kill the lattice) and drives east along it. Every fix on P is
// 5 m north of it except the one at index ambiguous, 17 m north: nearer
// Q (13 m) than P, but only a 900 m detour and back would put it there.
func hopStream() (pts []trajectory.Point, hop, ambiguous int) {
	for x := 110.0; x <= 310; x += 20 {
		pts = append(pts, trajectory.Point{T: float64(len(pts)), Pos: geo.Pt(x, 3)})
	}
	hop = len(pts)
	for x := 210.0; x <= 570; x += 20 {
		y := 1005.0
		if x == 450 {
			y, ambiguous = 1017, len(pts)
		}
		pts = append(pts, trajectory.Point{T: float64(len(pts)), Pos: geo.Pt(x, y)})
	}
	return pts, hop, ambiguous
}

// TestUnroutableStepRestartsLattice: one step with no route must not
// degrade the rest of the stream to nearest-edge snapping — offline,
// online, and online from a snapshot taken when the lattice was dead.
func TestUnroutableStepRestartsLattice(t *testing.T) {
	g := twoIslands()
	snapper := roadnet.NewSnapper(g, 100)
	pts, hop, ambiguous := hopStream()
	if near := snapper.KNearest(pts[ambiguous].Pos, 1)[0]; near.Pos.Y != 1030 {
		t.Fatalf("the ambiguous fix's nearest edge is at y=%v, want Q (1030): the test would not tell Viterbi from nearest-edge", near.Pos.Y)
	}
	onP := func(how string, snaps []roadnet.Snap) {
		t.Helper()
		if len(snaps) != len(pts) {
			t.Fatalf("%s: %d snaps for %d fixes", how, len(snaps), len(pts))
		}
		for i, s := range snaps {
			want := 1000.0
			if i < hop {
				want = 0
			}
			if s.Pos.Y != want {
				t.Errorf("%s: fix %d snapped to y=%v, want %v", how, i, s.Pos.Y, want)
			}
		}
	}

	res, err := MapMatch(g, snapper, trajectory.New("hop", pts), MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	onP("MapMatch", res.Snaps)

	online := func(m *OnlineMatcher, from int) (snaps []roadnet.Snap) {
		for _, p := range pts[from:] {
			for _, c := range m.Push(p) {
				snaps = append(snaps, c.Snap)
			}
		}
		for _, c := range m.Flush() {
			snaps = append(snaps, c.Snap)
		}
		return snaps
	}
	onP("OnlineMatcher", online(NewOnlineMatcher(g, snapper, MatchOptions{}, 3), 0))

	// A snapshot written by a build without the restart, two fixes after
	// the hop: every log-probability it holds is -Inf.
	m := NewOnlineMatcher(g, snapper, MatchOptions{}, 3)
	var head []roadnet.Snap
	for _, p := range pts[:hop+2] {
		for _, c := range m.Push(p) {
			head = append(head, c.Snap)
		}
	}
	st := m.State()
	for _, row := range st.Logp {
		for j := range row {
			row[j] = math.Inf(-1)
		}
	}
	healed := NewOnlineMatcherFromState(g, snapper, MatchOptions{}, 3, st)
	// Its pending columns commit as candidate 0, the nearest edge, which
	// for those unambiguous fixes is the right street; the lattice is
	// alive again from the first Push on.
	onP("OnlineMatcher restored dead", append(head, online(healed, hop+2)...))
}
