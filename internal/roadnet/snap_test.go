package roadnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
)

// refKNearest is the candidate search AppendKNearest replaced, kept as
// its reference: collect every snap of each ring from the graph's own
// edges and nodes, insertion-sort the whole list after the ring,
// truncate to 4k. It shares only the grid (cells and sweep order) with
// the search under test.
func refKNearest(g *Graph, s *Snapper, p geo.Point, k int) []Snap {
	if k <= 0 || g.NumEdges() == 0 {
		return nil
	}
	seen := map[EdgeID]bool{}
	var snaps []Snap
	cx, cy := s.grid.CellOf(p)
	nx, ny := s.grid.Dims()
	kthDist := math.Inf(1)
	for ring := 0; ring <= max(nx, ny); ring++ {
		if len(snaps) >= k && (float64(ring)-1)*s.grid.CellSize() > kthDist {
			break
		}
		for _, c := range s.grid.RingCells(cx, cy, ring, nil) {
			for _, id := range s.grid.Cell(c) {
				eid := EdgeID(id)
				if seen[eid] {
					continue
				}
				seen[eid] = true
				e := g.edges[eid]
				seg := geo.Segment{A: g.nodes[e.From].Pos, B: g.nodes[e.To].Pos}
				t := seg.ClosestParam(p)
				pos := seg.Interpolate(t)
				snaps = append(snaps, Snap{Edge: eid, Param: t, Pos: pos, Dist: pos.Dist(p)})
			}
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

// snapsDiff describes the first difference between got and want — Edge
// equal, Param, Pos and Dist equal to the bit — or returns "".
func snapsDiff(got, want []Snap) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d snaps, reference %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		if g.Edge != w.Edge || bits(g.Param) != bits(w.Param) || bits(g.Pos.X) != bits(w.Pos.X) ||
			bits(g.Pos.Y) != bits(w.Pos.Y) || bits(g.Dist) != bits(w.Dist) {
			return fmt.Sprintf("snap %d = %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// knearestTally is what a run of queries did: edges examined (first
// seen this query) and how many of those the box test skipped.
type knearestTally struct{ examined, rejected int }

func (c knearestTally) share() float64 { return float64(c.rejected) / float64(c.examined) }

// checkAgainstReference runs each point at each k through the search on
// a scratch of its own and through refKNearest and fails on the first
// snap that differs; the public KNearest must agree too.
func checkAgainstReference(t testing.TB, name string, g *Graph, s *Snapper, pts []geo.Point, ks []int) knearestTally {
	t.Helper()
	var c knearestTally
	scr := &snapScratch{seen: make([]uint32, len(s.edges))}
	for _, k := range ks {
		for _, p := range pts {
			scr.epoch++
			before := scr.boxRejects
			got := s.appendKNearest(scr, nil, p, k)
			if d := snapsDiff(got, refKNearest(g, s, p, k)); d != "" {
				t.Fatalf("%s k=%d at %v: %s", name, k, p, d)
			}
			if d := snapsDiff(s.KNearest(p, k), got); d != "" {
				t.Fatalf("%s k=%d at %v: KNearest differs from the scratch run: %s", name, k, p, d)
			}
			for _, m := range scr.seen {
				if m == scr.epoch {
					c.examined++
				}
			}
			c.rejected += scr.boxRejects - before
		}
	}
	return c
}

// onRoadFixes returns n points on random edges of g, each moved by
// Gaussian noise of sigma meters per axis: what a GPS feed sends.
func onRoadFixes(g *Graph, n int, sigma float64, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		e := g.edges[rng.Intn(len(g.edges))]
		on := g.nodes[e.From].Pos.Lerp(g.nodes[e.To].Pos, rng.Float64())
		pts[i] = geo.Pt(on.X+rng.NormFloat64()*sigma, on.Y+rng.NormFloat64()*sigma)
	}
	return pts
}

// TestKNearestMatchesSortReference holds the search — k-deep buffer,
// snapshotted edge table, box test — to the collect-sort-truncate
// search it replaced: same edges in the same order, ties in discovery
// order, Param, Pos and Dist to the bit. Inputs: random points, points
// exactly on nodes (every incident edge at distance 0) and midway
// between parallel streets (equal distances) on an exact lattice and a
// jittered city; noisy on-road fixes on the serving benchmark's city; a
// lattice with zero-length and duplicate parallel edges; points on cell
// boundaries and far outside the bounds; a grid widened by the cell
// cap; a NaN query. On the city the box test must have skipped at least
// 60 % of the examined edges (75 % measured), so the comparison is
// of the fast path.
func TestKNearestMatchesSortReference(t *testing.T) {
	ks := []int{1, 4, 16}
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
		checkAgainstReference(t, fmt.Sprintf("jitter %v", jitter), g, s, pts, ks)
	}

	t.Run("benchmark city", func(t *testing.T) {
		g := GridCity(GridCityOptions{NX: 80, NY: 80, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 41})
		s := NewSnapper(g, 100)
		c := checkAgainstReference(t, "city", g, s, onRoadFixes(g, 2048, 5, 42), []int{1, 4, 8})
		t.Logf("box test skipped %d of %d examined edges (%.1f %%)", c.rejected, c.examined, 100*c.share())
		if c.share() < 0.6 {
			t.Errorf("box test skipped %.1f %% of examined edges, want >= 60 %%", 100*c.share())
		}
	})

	t.Run("zero-length and parallel edges", func(t *testing.T) {
		g := GridCity(GridCityOptions{NX: 10, NY: 10, Spacing: 100, Seed: 33})
		rng := rand.New(rand.NewSource(34))
		var pts []geo.Point
		for i := 0; i < 30; i++ {
			a := NodeID(rng.Intn(g.NumNodes()))
			g.AddEdge(a, a, 10) // a loop: den == 0
			twin := g.AddNode(g.Node(a).Pos)
			g.AddBidirectional(a, twin, 10) // two nodes at one position
			e := g.Edge(EdgeID(rng.Intn(g.NumEdges())))
			g.AddEdge(e.From, e.To, 10) // a parallel copy of a street
			g.AddBidirectional(e.From, e.To, 20)
			n := g.Node(a).Pos
			pts = append(pts, n, geo.Pt(n.X+3, n.Y-4), g.Node(e.From).Pos.Lerp(g.Node(e.To).Pos, 0.5))
		}
		b := g.Bounds()
		for i := 0; i < 200; i++ {
			pts = append(pts, geo.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height()))
		}
		c := checkAgainstReference(t, "degenerate", g, NewSnapper(g, 100), pts, ks)
		if c.rejected == 0 {
			t.Error("box test never fired")
		}
	})

	t.Run("cell boundaries and far outside", func(t *testing.T) {
		g := GridCity(GridCityOptions{NX: 12, NY: 12, Spacing: 100, Jitter: 4, RemoveFrac: 0.2, Seed: 35})
		s := NewSnapper(g, 50)
		cell := s.grid.CellSize()
		nx, ny := s.grid.Dims()
		bounds := g.Bounds().Expand(cell) // the grid's: the network's plus one cell
		var pts []geo.Point
		for i := 0; i <= nx; i += 3 {
			x := bounds.Min.X + float64(i)*cell
			for j := 0; j <= ny; j += 4 {
				y := bounds.Min.Y + float64(j)*cell
				pts = append(pts, geo.Pt(x, y), geo.Pt(x, y+17), geo.Pt(x+23, y))
			}
		}
		c := g.Bounds().Center()
		for _, far := range []float64{1e3, 1e5, 1e9} {
			pts = append(pts, geo.Pt(c.X+far, c.Y), geo.Pt(c.X-far, c.Y+far), geo.Pt(c.X, c.Y-far), geo.Pt(c.X+far, c.Y+far))
		}
		checkAgainstReference(t, "boundaries", g, s, pts, ks)
	})

	t.Run("capped grid", func(t *testing.T) {
		g := GridCity(GridCityOptions{NX: 12, NY: 12, Spacing: 25_000, Jitter: 500, RemoveFrac: 0.2, Seed: 36})
		s := NewSnapper(g, 100)
		if nx, ny := s.grid.Dims(); s.grid.CellSize() == 100 {
			t.Fatalf("a 275 km city kept the 100 m cell (%d x %d)", nx, ny)
		}
		pts := onRoadFixes(g, 300, 200, 37)
		b := g.Bounds()
		rng := rand.New(rand.NewSource(38))
		for i := 0; i < 200; i++ {
			pts = append(pts, geo.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height()))
		}
		checkAgainstReference(t, "capped", g, s, pts, ks)
	})

	t.Run("NaN query", func(t *testing.T) {
		// Every distance is NaN, so nothing is nearer than anything: both
		// searches keep the first k edges discovered, and the box test,
		// whose bar is NaN, never skips one.
		g := GridCity(GridCityOptions{NX: 6, NY: 6, Spacing: 100, Seed: 39})
		nan := math.NaN()
		pts := []geo.Point{geo.Pt(nan, nan), geo.Pt(nan, 250), geo.Pt(250, nan)}
		if c := checkAgainstReference(t, "NaN", g, NewSnapper(g, 100), pts, ks); c.rejected != 0 {
			t.Errorf("box test skipped %d edges on a NaN query", c.rejected)
		}
	})
}

// TestSnapperGridIsBoundedByEdges is the grid cap: a two-edge network
// read from CSV whose one street crosses a 300 km square builds in
// under 8 MB (433 MB of cells at a fixed 100 m) and snaps like a brute
// force; one crossing 10 000 km builds at all (10¹⁰ cells). The serving
// benchmark's city keeps its 100 m cell.
func TestSnapperGridIsBoundedByEdges(t *testing.T) {
	diagonal := func(side float64) *Graph {
		g, err := ReadCSV(strings.NewReader(fmt.Sprintf("node,0,0\nnode,%g,%g\nedge,0,1,10\nedge,1,0,10\n", side, side)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := diagonal(300_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSnapper(g, 100)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 && !israce.Enabled {
		t.Errorf("NewSnapper on a 300 km network allocated %d bytes, want <= 8 MiB", n)
	}
	if nx, ny := s.grid.Dims(); nx*ny > 1<<16 {
		t.Errorf("300 km network: %d cells, want <= %d", nx*ny, 1<<16)
	}
	for _, p := range []geo.Point{geo.Pt(150_000, 150_010), geo.Pt(-5, 7), geo.Pt(300_000, 0), geo.Pt(1e6, 2e6)} {
		got := s.KNearest(p, 2)
		seg := geo.Segment{A: g.Node(0).Pos, B: g.Node(1).Pos}
		if len(got) != 2 || got[0].Edge != 0 || got[1].Edge != 1 || math.Abs(got[0].Dist-seg.Dist(p)) > 1e-6 {
			t.Errorf("snap of %v = %+v, want edges 0 and 1 at %v", p, got, seg.Dist(p))
		}
	}

	huge := NewSnapper(diagonal(1e7), 100)
	if nx, ny := huge.grid.Dims(); nx*ny > 1<<16 {
		t.Errorf("10 000 km network: %d cells, want <= %d", nx*ny, 1<<16)
	}
	if got := huge.KNearest(geo.Pt(5e6, 5e6), 1); len(got) != 1 || got[0].Dist > 1e-6 {
		t.Errorf("10 000 km network: snap of its midpoint = %+v", got)
	}

	city := NewSnapper(GridCity(GridCityOptions{NX: 80, NY: 80, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 41}), 100)
	if nx, ny := city.grid.Dims(); city.grid.CellSize() != 100 || nx*ny != 9801 {
		t.Errorf("benchmark city: %v m cells, %d x %d; want the 100 m grid of 9801 cells", city.grid.CellSize(), nx, ny)
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

// FuzzKNearestMatchesReference holds the search to refKNearest on a
// 5x5 exact lattice of 100 m streets (ties everywhere) plus up to eight
// edges the input adds. Byte 0 is k (1-16); bytes 1-4 are the query
// point as two int16 quarter-meters, scaled by 2^(byte 5 % 32) — far
// outside the bounds at the top. Each further 7 bytes add a node at two
// int16 quarter-meters scaled by 2^(byte 4 % 12) (up to 33 000 km away,
// which widens the grid past its cell cap) and an edge between the
// nodes bytes 5 and 6 pick, mod the node count: a loop, a parallel copy
// of a street, a long diagonal. Coordinates stay finite and far below
// overflow, so no distance is NaN: the case the search is bit-identical
// to the reference in.
func FuzzKNearestMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0x90, 0x01, 0x90, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		k := 1 + int(data[0]%16)
		quarter := func(b []byte, shift byte) float64 {
			return math.Ldexp(float64(int16(binary.LittleEndian.Uint16(b)))/4, int(shift))
		}
		p := geo.Pt(quarter(data[1:], data[5]%32), quarter(data[3:], data[5]%32))
		g := GridCity(GridCityOptions{NX: 5, NY: 5, Spacing: 100, Seed: 1})
		for rest := data[6:]; len(rest) >= 7 && g.NumEdges() < 80+8; rest = rest[7:] {
			g.AddNode(geo.Pt(quarter(rest, rest[4]%12), quarter(rest[2:], rest[4]%12)))
			n := g.NumNodes()
			g.AddEdge(NodeID(int(rest[5])%n), NodeID(int(rest[6])%n), 10)
		}
		s := NewSnapper(g, 100)
		if d := snapsDiff(s.KNearest(p, k), refKNearest(g, s, p, k)); d != "" {
			t.Fatalf("k=%d at %v: %s", k, p, d)
		}
	})
}
