package roadnet

// Property tests for the compiled query engine: the CSR one-to-many
// sweep and path search must agree with a deliberately naive
// map-based reference implementation (linear-scan frontier, no heap,
// no CSR) across hundreds of seeded generator graphs, the bounded
// sweep must be exact below its cost budget and +Inf above it, and
// SnapDists must be the documented arithmetic over those distances.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
)

// refDijkstra is the reference single-source shortest-distance solver:
// hash maps and a linear frontier scan, structured like the package's
// pre-engine implementation. Deliberately slow and obvious.
func refDijkstra(g *Graph, src NodeID) map[NodeID]float64 {
	dist := map[NodeID]float64{src: 0}
	done := map[NodeID]bool{}
	for {
		best, bd := NodeID(-1), math.Inf(1)
		for n, d := range dist {
			if !done[n] && d < bd {
				best, bd = n, d
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		for _, eid := range g.out[best] {
			e := g.Edge(eid)
			nd := bd + e.Length
			if cur, ok := dist[e.To]; !ok || nd < cur {
				dist[e.To] = nd
			}
		}
	}
	return dist
}

// sweepDists drives one manyDist sweep the way SnapDists does — borrow
// a scratch, mark the targets, sweep, read the settled set — but over
// nodes, which SnapDists (edge heads only) cannot address. out[i] is
// +Inf for a target the sweep did not settle; it returns how many it did.
func sweepDists(e *Engine, src NodeID, targets []NodeID, maxCost float64, out []float64) int {
	s := e.getScratch()
	defer e.putScratch(s)
	s.begin()
	for _, t := range targets {
		s.mark(int32(t))
	}
	e.manyDist(s, int32(src), maxCost)
	reached := 0
	for i, t := range targets {
		out[i] = math.Inf(1)
		if s.done[t] == s.epoch {
			out[i] = s.dist[t]
			reached++
		}
	}
	return reached
}

func TestEngineMatchesReferenceDijkstra(t *testing.T) {
	const graphs = 500
	for trial := 0; trial < graphs; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		opt := GridCityOptions{
			NX:         2 + rng.Intn(5),
			NY:         2 + rng.Intn(5),
			Spacing:    60 + rng.Float64()*120,
			Jitter:     rng.Float64() * 15,
			RemoveFrac: rng.Float64() * 0.4,
			Seed:       seed,
		}
		g := GridCity(opt)
		src := NodeID(rng.Intn(g.NumNodes()))
		ref := refDijkstra(g, src)

		targets := make([]NodeID, g.NumNodes())
		for i := range targets {
			targets[i] = NodeID(i)
		}
		got := make([]float64, len(targets))
		reached := sweepDists(g.Engine(), src, targets, math.Inf(1), got)
		if reached != len(ref) {
			t.Fatalf("trial %d: sweep reached %d nodes, reference reached %d", trial, reached, len(ref))
		}
		for i, tgt := range targets {
			want, ok := ref[tgt]
			if !ok {
				want = math.Inf(1)
			}
			if got[i] != want && !(math.IsInf(got[i], 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d: d(%d,%d) = %v, reference %v", trial, src, tgt, got[i], want)
			}
		}

		// Path search: distance agrees with the reference, the edge
		// sequence is connected, and its length sums to Dist.
		for probe := 0; probe < 5; probe++ {
			dst := NodeID(rng.Intn(g.NumNodes()))
			p, err := g.ShortestPath(src, dst)
			want, reachable := ref[dst]
			if !reachable {
				if err == nil {
					t.Fatalf("trial %d: ShortestPath(%d,%d) found a path, reference says unreachable", trial, src, dst)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: ShortestPath(%d,%d): %v (reference dist %v)", trial, src, dst, err, want)
			}
			if p.Dist != want {
				t.Fatalf("trial %d: ShortestPath(%d,%d).Dist = %v, reference %v", trial, src, dst, p.Dist, want)
			}
			var sum float64
			for i, eid := range p.Edges {
				e := g.Edge(eid)
				if e.From != p.Nodes[i] || e.To != p.Nodes[i+1] {
					t.Fatalf("trial %d: path edge %d (%d->%d) does not connect nodes %d->%d",
						trial, eid, e.From, e.To, p.Nodes[i], p.Nodes[i+1])
				}
				sum += e.Length
			}
			if sum != p.Dist {
				t.Fatalf("trial %d: path edge lengths sum to %v, Dist is %v", trial, sum, p.Dist)
			}
		}
	}
}

func TestManyDistBoundedSemantics(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		seed := int64(9000 + trial)
		rng := rand.New(rand.NewSource(seed))
		g := GridCity(GridCityOptions{
			NX: 4 + rng.Intn(4), NY: 4 + rng.Intn(4),
			Spacing: 100, Jitter: 5, RemoveFrac: 0.25, Seed: seed,
		})
		src := NodeID(rng.Intn(g.NumNodes()))
		ref := refDijkstra(g, src)

		// Bound at a mid-range finite distance: everything at or below
		// the bound must be exact, everything above must be +Inf.
		var finite []float64
		for _, d := range ref {
			finite = append(finite, d)
		}
		sort.Float64s(finite)
		maxCost := finite[len(finite)/2]
		targets := make([]NodeID, g.NumNodes())
		for i := range targets {
			targets[i] = NodeID(i)
		}
		out := make([]float64, len(targets))
		reached := sweepDists(g.Engine(), src, targets, maxCost, out)
		wantReached := 0
		for i, tgt := range targets {
			want, ok := ref[tgt]
			switch {
			case ok && want <= maxCost:
				wantReached++
				if out[i] != want {
					t.Fatalf("trial %d: bounded d(%d,%d) = %v, want exact %v (bound %v)", trial, src, tgt, out[i], want, maxCost)
				}
			default:
				if !math.IsInf(out[i], 1) {
					t.Fatalf("trial %d: d(%d,%d) = %v beyond bound %v, want +Inf (ref %v)", trial, src, tgt, out[i], maxCost, want)
				}
			}
		}
		if reached != wantReached {
			t.Fatalf("trial %d: bounded sweep reported %d reached, want %d", trial, reached, wantReached)
		}
	}
}

// TestSweepWarmScratchAllocFree pins the sweep's allocation contract:
// once a scratch has been through one search its heap is grown, and a
// sweep borrows it, marks, searches and returns it without allocating
// (nor does a SnapDists miss: its cache entry is two array slots).
func TestSweepWarmScratchAllocFree(t *testing.T) {
	g := GridCity(GridCityOptions{NX: 12, NY: 12, Spacing: 100, Jitter: 5, RemoveFrac: 0.2, Seed: 4})
	e := g.Engine()
	targets := make([]NodeID, g.NumNodes())
	for i := range targets {
		targets[i] = NodeID(i)
	}
	out := make([]float64, len(targets))
	sweepDists(e, 0, targets, math.Inf(1), out) // warm: the widest frontier this graph has
	allocs := testing.AllocsPerRun(50, func() { sweepDists(e, 0, targets[40:44], math.Inf(1), out) })
	if allocs != 0 && !israce.Enabled {
		t.Errorf("warm sweep allocated %v times per run, want 0", allocs)
	}
	ref := refDijkstra(g, 0)
	for i, tgt := range targets[40:44] {
		if out[i] != ref[tgt] {
			t.Errorf("warm sweep d(0,%d) = %v, reference %v", tgt, out[i], ref[tgt])
		}
	}
}

// TestSnapDistsMatchesContract holds SnapDists to its documented
// arithmetic over reference distances (identical float expression
// order), bounded and unbounded, with two candidates sharing a head
// node and one whose head no route reaches.
func TestSnapDistsMatchesContract(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		seed := int64(60000 + trial)
		rng := rand.New(rand.NewSource(seed))
		g := GridCity(GridCityOptions{
			NX: 6 + rng.Intn(7), NY: 6 + rng.Intn(7),
			Spacing: 60 + rng.Float64()*120, Jitter: rng.Float64() * 15,
			RemoveFrac: rng.Float64() * 0.4, Seed: seed,
		})
		// A one-way stub nothing leads into: its tail is unreachable.
		island := g.AddEdge(g.AddNode(geo.Pt(-500, -500)), g.AddNode(geo.Pt(-400, -500)), 10)
		e := g.Engine()
		snap := func() Snap {
			return Snap{Edge: EdgeID(rng.Intn(int(island))), Param: rng.Float64()}
		}
		a := snap()
		bs := make([]Snap, 8)
		for i := range bs {
			bs[i] = snap()
		}
		bs[6] = Snap{Edge: bs[0].Edge, Param: rng.Float64()} // same head as bs[0]
		bs[7] = Snap{Edge: island, Param: 0.5}
		u := g.Edge(a.Edge).To
		ref := refDijkstra(g, u)
		rem := (1 - a.Param) * g.Edge(a.Edge).Length
		// Bounded first: cache hits legitimately bypass the bound (the
		// documented pass-1 behavior), so the unbounded round must not
		// pre-warm the cache with beyond-bound values.
		for _, maxCost := range []float64{rem + 300, math.Inf(1)} {
			core := maxCost
			if !math.IsInf(core, 1) {
				core -= rem
			}
			out := make([]float64, len(bs))
			e.SnapDists(a, bs, maxCost, out)
			for j, b := range bs {
				var want float64
				if b.Edge == a.Edge && b.Param >= a.Param {
					want = (b.Param - a.Param) * g.Edge(a.Edge).Length
				} else {
					d, ok := ref[g.Edge(b.Edge).From]
					if ok && d <= core {
						want = rem + d + b.Param*g.Edge(b.Edge).Length
					} else {
						want = math.Inf(1)
					}
				}
				if out[j] != want && !(math.IsInf(out[j], 1) && math.IsInf(want, 1)) {
					t.Fatalf("trial %d (bound %v): SnapDists[%d] = %v, want %v", trial, maxCost, j, out[j], want)
				}
			}
			// A truncated sweep proves nothing about the island; only
			// the unbounded one may record "no path".
			d, hit := e.cache.cached(int32(u), int32(g.Edge(island).From))
			if hit && !math.IsInf(d, 1) || hit != math.IsInf(maxCost, 1) {
				t.Fatalf("trial %d (bound %v): island cached (d=%v hit=%v)", trial, maxCost, d, hit)
			}
		}
	}
}
