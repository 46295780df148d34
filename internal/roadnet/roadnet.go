// Package roadnet implements the road-network substrate used by
// map-matching, route recovery, and network-constrained trajectory
// compression: a directed graph embedded in the plane, a compiled
// query engine (CSR adjacency, Dijkstra path search, one-to-many
// truncated Dijkstra sweep behind a sharded route cache — see Engine),
// nearest-edge snapping, and deterministic synthetic city generators.
//
// # Mutation contract
//
// Build-then-query is the intended lifecycle: construct the graph with
// AddNode/AddEdge, then query from any number of goroutines. Queries
// are safe concurrently; mutating the graph concurrently with queries
// is not. AddNode/AddEdge invalidate the compiled engine (and its route
// cache), which is rebuilt lazily on the next query.
package roadnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"sidq/internal/geo"
)

// ErrNoPath is returned when no route exists between two nodes.
var ErrNoPath = errors.New("roadnet: no path")

// NodeID identifies a graph node.
type NodeID int

// EdgeID identifies a directed edge.
type EdgeID int

// Node is a road intersection (or dead end) embedded in the plane.
type Node struct {
	ID  NodeID
	Pos geo.Point
}

// Edge is a directed road segment between two nodes.
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Length   float64 // meters
	SpeedCap float64 // free-flow speed, m/s
}

// Graph is a directed road network.
type Graph struct {
	nodes []Node
	edges []Edge
	out   [][]EdgeID // adjacency: outgoing edges per node

	// Compiled query engine, built lazily and invalidated by
	// mutation. The mutex only guards engine (re)builds; queries load
	// the pointer atomically.
	engMu sync.Mutex
	eng   atomic.Pointer[Engine]
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a node at pos and returns its id.
func (g *Graph) AddNode(pos geo.Point) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pos: pos})
	g.out = append(g.out, nil)
	g.invalidate()
	return id
}

// AddEdge adds a directed edge from a to b with the given free-flow
// speed; length is computed from the node embedding. It returns the new
// edge id. It panics on out-of-range node ids (programming error).
func (g *Graph) AddEdge(a, b NodeID, speedCap float64) EdgeID {
	if int(a) >= len(g.nodes) || int(b) >= len(g.nodes) || a < 0 || b < 0 {
		panic(fmt.Sprintf("roadnet: AddEdge bad nodes %d->%d (have %d)", a, b, len(g.nodes)))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{
		ID:       id,
		From:     a,
		To:       b,
		Length:   g.nodes[a].Pos.Dist(g.nodes[b].Pos),
		SpeedCap: speedCap,
	})
	g.out[a] = append(g.out[a], id)
	g.invalidate()
	return id
}

// invalidate drops the compiled engine and, with it, its route cache:
// the pairs it held leave the entries gauge here, not when the
// collector gets to them.
func (g *Graph) invalidate() {
	if e := g.eng.Swap(nil); e != nil {
		pkgObs.cacheEntries.Add(-int64(e.cache.Len()))
	}
}

// AddBidirectional adds edges in both directions and returns both ids.
func (g *Graph) AddBidirectional(a, b NodeID, speedCap float64) (EdgeID, EdgeID) {
	return g.AddEdge(a, b, speedCap), g.AddEdge(b, a, speedCap)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed-edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Engine returns the compiled query engine for the graph's current
// revision, building it on first use. The build compiles the CSR
// adjacency snapshot and allocates the route cache — one pass over the
// edges, no preprocessing; subsequent calls return the cached engine
// until the graph is mutated. Safe to call from multiple goroutines.
func (g *Graph) Engine() *Engine {
	if e := g.eng.Load(); e != nil {
		return e
	}
	g.engMu.Lock()
	defer g.engMu.Unlock()
	if e := g.eng.Load(); e != nil {
		return e
	}
	e := newEngine(g)
	g.eng.Store(e)
	return e
}

// Bounds returns the bounding rectangle of all node positions.
func (g *Graph) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, n := range g.nodes {
		r = r.ExtendPoint(n.Pos)
	}
	return r
}

// Path is a shortest-path result.
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
	Dist  float64 // meters
}

// Geometry returns the polyline through the path's node positions.
func (g *Graph) Geometry(p Path) geo.Polyline {
	pl := make(geo.Polyline, len(p.Nodes))
	for i, id := range p.Nodes {
		pl[i] = g.nodes[id].Pos
	}
	return pl
}

// ShortestPath returns the minimum-length path from a to b using
// Dijkstra's algorithm on the compiled engine.
func (g *Graph) ShortestPath(a, b NodeID) (Path, error) {
	return g.Engine().ShortestPath(a, b)
}

func reverseEdges(s []EdgeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseNodes(s []NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// GridCityOptions configures the synthetic city generator.
type GridCityOptions struct {
	NX, NY     int     // intersections per axis (>= 2)
	Spacing    float64 // meters between intersections
	Jitter     float64 // positional jitter stddev in meters
	RemoveFrac float64 // fraction of interior street segments removed
	SpeedCap   float64 // uniform free-flow speed, m/s
	Seed       int64
}

// GridCity generates a Manhattan-style street grid: NX x NY
// intersections with jittered positions and a fraction of interior
// segments removed to create non-trivial shortest paths. All streets
// are bidirectional. The boundary ring is never removed and a repair
// pass reinstates removed segments for any intersection pocket the
// random removal cut off, so the graph is always strongly connected.
func GridCity(opt GridCityOptions) *Graph {
	if opt.NX < 2 {
		opt.NX = 2
	}
	if opt.NY < 2 {
		opt.NY = 2
	}
	if opt.Spacing <= 0 {
		opt.Spacing = 100
	}
	if opt.SpeedCap <= 0 {
		opt.SpeedCap = 13.9 // ~50 km/h
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	g := NewGraph()
	ids := make([][]NodeID, opt.NX)
	for x := 0; x < opt.NX; x++ {
		ids[x] = make([]NodeID, opt.NY)
		for y := 0; y < opt.NY; y++ {
			jx := rng.NormFloat64() * opt.Jitter
			jy := rng.NormFloat64() * opt.Jitter
			ids[x][y] = g.AddNode(geo.Pt(float64(x)*opt.Spacing+jx, float64(y)*opt.Spacing+jy))
		}
	}
	gridStreets(g, ids, opt.RemoveFrac, opt.SpeedCap, rng)
	return g
}

// gridStreets lays the street segments of one ids[x][y] grid: boundary
// ring always kept, interior segments removed with probability
// removeFrac, followed by the connectivity repair pass. Shared by
// GridCity and the per-city loop of Continental.
func gridStreets(g *Graph, ids [][]NodeID, removeFrac, speed float64, rng *rand.Rand) {
	nx, ny := len(ids), len(ids[0])
	keptH := make([][]bool, nx) // keptH[x][y]: segment (x,y)-(x+1,y)
	keptV := make([][]bool, nx) // keptV[x][y]: segment (x,y)-(x,y+1)
	for x := 0; x < nx; x++ {
		keptH[x] = make([]bool, ny)
		keptV[x] = make([]bool, ny)
	}
	interior := func(x, y int, horizontal bool) bool {
		if horizontal {
			return y > 0 && y < ny-1
		}
		return x > 0 && x < nx-1
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if x+1 < nx {
				if !(interior(x, y, true) && rng.Float64() < removeFrac) {
					g.AddBidirectional(ids[x][y], ids[x+1][y], speed)
					keptH[x][y] = true
				}
			}
			if y+1 < ny {
				if !(interior(x, y, false) && rng.Float64() < removeFrac) {
					g.AddBidirectional(ids[x][y], ids[x][y+1], speed)
					keptV[x][y] = true
				}
			}
		}
	}
	ensureGridConnected(g, ids, keptH, keptV, speed)
}

// ensureGridConnected reinstates removed street segments until every
// intersection is reachable from the kept boundary ring — independent
// removal can strand an interior pocket (all incident segments gone
// with probability removeFrac^4 per node, a near-certainty at
// continental node counts). The repair is deterministic (fixed scan
// order, no rng) and adds nothing when the grid is already connected,
// so previously valid seeds keep byte-identical topology.
func ensureGridConnected(g *Graph, ids [][]NodeID, keptH, keptV [][]bool, speed float64) {
	nx, ny := len(ids), len(ids[0])
	visited := make([][]bool, nx)
	for x := range visited {
		visited[x] = make([]bool, ny)
	}
	var stack [][2]int
	absorb := func(sx, sy int) {
		visited[sx][sy] = true
		stack = append(stack[:0], [2]int{sx, sy})
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := p[0], p[1]
			if x+1 < nx && keptH[x][y] && !visited[x+1][y] {
				visited[x+1][y] = true
				stack = append(stack, [2]int{x + 1, y})
			}
			if x > 0 && keptH[x-1][y] && !visited[x-1][y] {
				visited[x-1][y] = true
				stack = append(stack, [2]int{x - 1, y})
			}
			if y+1 < ny && keptV[x][y] && !visited[x][y+1] {
				visited[x][y+1] = true
				stack = append(stack, [2]int{x, y + 1})
			}
			if y > 0 && keptV[x][y-1] && !visited[x][y-1] {
				visited[x][y-1] = true
				stack = append(stack, [2]int{x, y - 1})
			}
		}
	}
	absorb(0, 0)
	for {
		repaired := false
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				if visited[x][y] {
					continue
				}
				// Bridge to a visited grid neighbor if one exists; the
				// stranded component then joins via the kept edges.
				switch {
				case x > 0 && visited[x-1][y]:
					g.AddBidirectional(ids[x-1][y], ids[x][y], speed)
					keptH[x-1][y] = true
				case x+1 < nx && visited[x+1][y]:
					g.AddBidirectional(ids[x][y], ids[x+1][y], speed)
					keptH[x][y] = true
				case y > 0 && visited[x][y-1]:
					g.AddBidirectional(ids[x][y-1], ids[x][y], speed)
					keptV[x][y-1] = true
				case y+1 < ny && visited[x][y+1]:
					g.AddBidirectional(ids[x][y], ids[x][y+1], speed)
					keptV[x][y] = true
				default:
					continue
				}
				absorb(x, y)
				repaired = true
			}
		}
		if !repaired {
			return // every pocket reachable: nothing left to bridge
		}
	}
}
