package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
)

// refKNearest is the candidate search AppendKNearest replaced, kept as
// its reference: collect every snap of each ring, insertion-sort the
// whole list after the ring, truncate to 4k.
func refKNearest(s *Snapper, p geo.Point, k int) []Snap {
	if k <= 0 || s.g.NumEdges() == 0 {
		return nil
	}
	seen := map[EdgeID]bool{}
	var snaps []Snap
	cx, cy := s.cellOf(p)
	kthDist := math.Inf(1)
	for ring := 0; ring <= max(s.nx, s.ny); ring++ {
		if len(snaps) >= k && (float64(ring)-1)*s.cellSize > kthDist {
			break
		}
		for _, eid := range s.ringEdges(cx, cy, ring, nil) {
			if seen[eid] {
				continue
			}
			seen[eid] = true
			e := s.g.edges[eid]
			seg := geo.Segment{A: s.g.nodes[e.From].Pos, B: s.g.nodes[e.To].Pos}
			t := seg.ClosestParam(p)
			pos := seg.Interpolate(t)
			snaps = append(snaps, Snap{Edge: eid, Param: t, Pos: pos, Dist: pos.Dist(p)})
		}
		for i := 1; i < len(snaps); i++ {
			for j := i; j > 0 && snaps[j].Dist < snaps[j-1].Dist; j-- {
				snaps[j], snaps[j-1] = snaps[j-1], snaps[j]
			}
		}
		if len(snaps) > 4*k {
			snaps = snaps[:4*k]
		}
		if len(snaps) >= k {
			kthDist = snaps[k-1].Dist
		}
	}
	return snaps[:min(k, len(snaps))]
}

// TestKNearestMatchesSortReference holds the bounded insertion to the
// sort it replaced — same snaps, same order, ties in discovery order,
// Dist to the bit — on random points, points exactly on nodes (every
// incident edge at distance 0) and points midway between the two
// directions of a street and between parallel streets (equal distances).
func TestKNearestMatchesSortReference(t *testing.T) {
	for _, jitter := range []float64{0, 9} { // 0: an exact lattice, ties everywhere
		g := GridCity(GridCityOptions{NX: 14, NY: 14, Spacing: 110, Jitter: jitter, RemoveFrac: 0.2, Seed: 31})
		s := NewSnapper(g, 100)
		rng := rand.New(rand.NewSource(32))
		b := g.Bounds().Expand(150)
		var pts []geo.Point
		for i := 0; i < 400; i++ {
			pts = append(pts, geo.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height()))
		}
		for i := 0; i < g.NumNodes(); i += 3 {
			n := g.Node(NodeID(i)).Pos
			pts = append(pts, n, geo.Pt(n.X+55, n.Y+55), geo.Pt(n.X+55, n.Y))
		}
		for _, k := range []int{1, 4, 16} {
			for _, p := range pts {
				got, want := s.KNearest(p, k), refKNearest(s, p, k)
				if len(got) != len(want) {
					t.Fatalf("jitter %v k=%d at %v: %d snaps, reference %d", jitter, k, p, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("jitter %v k=%d at %v: snap %d = %+v, reference %+v", jitter, k, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAppendKNearestWarmAllocFree pins the candidate search's
// allocation contract: into a dst with room, with the pooled scratch
// grown by one earlier query, it allocates nothing, and it appends
// exactly KNearest's snaps after what dst held.
func TestAppendKNearestWarmAllocFree(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 12, NY: 12, Spacing: 100, Jitter: 5, RemoveFrac: 0.2, Seed: 4})
	s := NewSnapper(g, 100)
	p := geo.Pt(430, 515)
	want := s.KNearest(p, 4)
	dst := make([]Snap, 1, 5)
	allocs := testing.AllocsPerRun(100, func() { dst = s.AppendKNearest(dst[:1], p, 4) })
	if allocs != 0 && !israce.Enabled {
		t.Errorf("warm AppendKNearest allocated %v times per run, want 0", allocs)
	}
	if len(dst) != 5 || dst[0] != (Snap{}) {
		t.Fatalf("AppendKNearest left %d snaps, first %+v; want 5, the zero one kept", len(dst), dst[0])
	}
	for i, w := range want {
		if dst[i+1] != w {
			t.Errorf("appended snap %d = %+v, KNearest %+v", i, dst[i+1], w)
		}
	}
}
