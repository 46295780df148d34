package roadnet

// Continental-scale synthetic road networks: a lattice of GridCity-like
// street grids ("cities") stitched together by long, fast highway
// segments between adjacent city centers. The result has the two-level
// structure real road networks have — dense local streets, sparse
// long-haul links — and it scales to millions of directed edges while
// staying strongly connected (every city keeps its boundary ring plus
// the gridStreets repair pass, and the highway mesh connects all
// cities). Nothing the system serves loads such a graph; it exists so
// that BenchmarkSnapDists/continental keeps measuring the regime — long
// edges, transitions that route round them — where a sweep is
// expensive and the route cache (or a hierarchy) earns its keep.

import (
	"math/rand"

	"sidq/internal/geo"
)

// ContinentalOptions configures the continental generator.
type ContinentalOptions struct {
	CitiesX, CitiesY int     // city lattice dimensions (>= 1)
	CityNX, CityNY   int     // intersections per city axis (>= 2)
	Spacing          float64 // meters between intersections (default 100)
	CityGap          float64 // extra meters between adjacent cities (default 20*Spacing)
	Jitter           float64 // positional jitter stddev in meters
	RemoveFrac       float64 // fraction of interior street segments removed
	StreetSpeed      float64 // street free-flow speed, m/s (default ~50 km/h)
	HighwaySpeed     float64 // highway free-flow speed, m/s (default ~120 km/h)
	Seed             int64
}

// Continental generates the multi-city graph. Node and edge insertion
// order is fully determined by the options, so two calls with equal
// options produce identical graphs (and identical engines).
func Continental(opt ContinentalOptions) *Graph {
	if opt.CitiesX < 1 {
		opt.CitiesX = 1
	}
	if opt.CitiesY < 1 {
		opt.CitiesY = 1
	}
	if opt.CityNX < 2 {
		opt.CityNX = 2
	}
	if opt.CityNY < 2 {
		opt.CityNY = 2
	}
	if opt.Spacing <= 0 {
		opt.Spacing = 100
	}
	if opt.CityGap <= 0 {
		opt.CityGap = 20 * opt.Spacing
	}
	if opt.StreetSpeed <= 0 {
		opt.StreetSpeed = 13.9 // ~50 km/h
	}
	if opt.HighwaySpeed <= 0 {
		opt.HighwaySpeed = 33.3 // ~120 km/h
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	g := NewGraph()
	cityW := float64(opt.CityNX-1)*opt.Spacing + opt.CityGap
	cityH := float64(opt.CityNY-1)*opt.Spacing + opt.CityGap
	// Per-city node grids, plus each city's center node for highways.
	centers := make([][]NodeID, opt.CitiesX)
	for cx := 0; cx < opt.CitiesX; cx++ {
		centers[cx] = make([]NodeID, opt.CitiesY)
		for cy := 0; cy < opt.CitiesY; cy++ {
			ox := float64(cx) * cityW
			oy := float64(cy) * cityH
			ids := make([][]NodeID, opt.CityNX)
			for x := 0; x < opt.CityNX; x++ {
				ids[x] = make([]NodeID, opt.CityNY)
				for y := 0; y < opt.CityNY; y++ {
					jx := rng.NormFloat64() * opt.Jitter
					jy := rng.NormFloat64() * opt.Jitter
					ids[x][y] = g.AddNode(geo.Pt(ox+float64(x)*opt.Spacing+jx, oy+float64(y)*opt.Spacing+jy))
				}
			}
			gridStreets(g, ids, opt.RemoveFrac, opt.StreetSpeed, rng)
			centers[cx][cy] = ids[opt.CityNX/2][opt.CityNY/2]
		}
	}
	// Highway mesh: adjacent city centers, bidirectional.
	for cx := 0; cx < opt.CitiesX; cx++ {
		for cy := 0; cy < opt.CitiesY; cy++ {
			if cx+1 < opt.CitiesX {
				g.AddBidirectional(centers[cx][cy], centers[cx+1][cy], opt.HighwaySpeed)
			}
			if cy+1 < opt.CitiesY {
				g.AddBidirectional(centers[cx][cy], centers[cx][cy+1], opt.HighwaySpeed)
			}
		}
	}
	return g
}

// BuildEngine compiles a fresh engine snapshot of g — with an empty
// route cache — bypassing the cached-engine fast path. Benchmarks use
// it to start each iteration cold; production code should call Engine,
// which caches per graph revision.
func (g *Graph) BuildEngine() *Engine { return newEngine(g) }
