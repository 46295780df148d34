package main

// The feed: every byte the benchmark sends is generated here from one
// seed, and the program under test only ever sees those bytes. The
// generator keeps what the program must not see — the ground truth of
// every trip and the exact number of rows the reorderer has to drop as
// late — so that output quality is scored, not only speed.
//
// A trip is a vehicle driving a closed tour of shortest paths through
// six random waypoints (12 m/s, 1 Hz), so a source's position stays
// continuous when the feed wraps; wrapped cycles get a whole-cycle time
// offset, so a source's event time only runs backwards where disorder
// is injected on purpose. One lap of all 32 tours crosses more node
// pairs than roadnet's route cache holds, so map matching keeps missing
// it and the contraction hierarchy stays in use; a feed of a few short
// trips on repeat would be answered from the cache alone.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
)

const (
	sourcesPerSession = 16
	chunkRows         = 256
	rowsPerSource     = chunkRows / sourcesPerSession
	streamLateness    = 5.0 // seconds; the sidqserve default

	// Disorder: a tenth of the rows arrive up to three rows (about 3 s)
	// after their place, inside the lateness bound; one in a hundred
	// arrives 8 to 12 rows late, beyond it.
	nearShare   = 0.10
	nearMaxRows = 3
	farShare    = 0.01
	farMinRows  = 8
	farMaxRows  = 12

	historySeconds = 512 // length of a history query's time range

	tourLegs  = 6  // shortest paths chained into one closed tour
	tourSpeed = 12 // m/s

	cleanBodies       = 8
	cleanLight        = 3 // of the eight; the other five are heavy
	cleanTrajectories = 16
	cleanSeconds      = 110 // samples per trajectory before corruption
)

// trip is one source's cycle: the truth, and one cycle of corrupted
// rows in arrival order.
type trip struct {
	truth []geo.Point // position at second i of the cycle; len is the cycle span
	t     []int       // event second within the cycle, per arrival row
	x, y  []float64   // reported position, rounded to a centimetre
	tail  [][]byte    // ",x,y\n" as sent

	latePre  []int     // latePre[i]: rows among the first i of a cycle dropped as late
	sqErrPre []float64 // sqErrPre[i]: squared error against truth of the first i rows
}

func (tr *trip) span() int { return len(tr.truth) }
func (tr *trip) rows() int { return len(tr.t) }

// cleanBody is one /v1/clean request body with its truth.
type cleanBody struct {
	heavy bool
	csv   []byte
	truth map[string]*trajectory.Trajectory
}

// window is one history range query.
type window struct {
	rect   geo.Rect
	t0, t1 float64
}

type feed struct {
	seed        int64
	graph       *roadnet.Graph
	engineBuild time.Duration // Graph.Engine() on the fresh graph (CH build above 4096 nodes)
	trips       []*trip
	bodies      []cleanBody
	meanSpan    float64
}

// newCity generates the road network: grid x grid intersections.
func newCity(seed int64, grid int) *roadnet.Graph {
	return roadnet.GridCity(roadnet.GridCityOptions{
		NX: grid, NY: grid, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: seed,
	})
}

// newFeed builds the city, clients*16 trips and the clean bodies.
func newFeed(seed int64, grid, clients int) *feed {
	f := &feed{seed: seed, graph: newCity(seed, grid)}
	start := time.Now()
	f.graph.Engine()
	f.engineBuild = time.Since(start)

	n := clients * sourcesPerSession
	rng := rand.New(rand.NewSource(seed + 1))
	var spanSum int
	for k := 0; k < n; k++ {
		t := newTrip(tour(f.graph, rng, grid/4), seed+int64(1000*(k+1)))
		f.trips = append(f.trips, t)
		spanSum += t.span()
	}
	f.meanSpan = float64(spanSum) / float64(n)
	f.bodies = f.cleanBodies()
	return f
}

// tour drives a closed loop on g: shortest paths from waypoint to
// waypoint and back to the first, each of at least minHops nodes,
// sampled once a second.
func tour(g *roadnet.Graph, rng *rand.Rand, minHops int) []geo.Point {
	node := func() roadnet.NodeID { return roadnet.NodeID(rng.Intn(g.NumNodes())) }
	leg := func(a, b roadnet.NodeID) (roadnet.Path, bool) {
		p, err := g.ShortestPath(a, b)
		return p, err == nil && len(p.Nodes) >= minHops
	}
	var line geo.Polyline
	add := func(p roadnet.Path) {
		pl := g.Geometry(p)
		if len(line) > 0 {
			pl = pl[1:] // the joint is already there
		}
		line = append(line, pl...)
	}
	first := node()
	at := first
	for i := 1; i < tourLegs; i++ {
		for {
			next := node()
			p, ok := leg(at, next)
			if !ok {
				continue
			}
			if i == tourLegs-1 { // the last waypoint also has to lead home
				home, ok := leg(next, first)
				if !ok {
					continue
				}
				add(p)
				p = home
			}
			add(p)
			at = next
			break
		}
	}
	var pts []geo.Point
	for d, total := 0.0, line.Length(); d < total; d += tourSpeed {
		pts = append(pts, line.PointAt(d))
	}
	return pts
}

// newTrip corrupts one tour and fixes its arrival order.
func newTrip(truth []geo.Point, seed int64) *trip {
	tr := &trip{truth: truth}
	pts := make([]trajectory.Point, len(tr.truth))
	for i, p := range tr.truth {
		pts[i] = trajectory.Point{T: float64(i), Pos: p}
	}
	dirty, _ := simulate.Corruption{
		NoiseSigma: 5, OutlierRate: 0.02, OutlierMag: 100, DropRate: 0.05, Seed: seed,
	}.Apply(&trajectory.Trajectory{ID: "truth", Points: pts})

	order := arrivalOrder(len(dirty.Points), rand.New(rand.NewSource(seed+7)))
	tr.latePre = make([]int, 1, len(order)+1)
	tr.sqErrPre = make([]float64, 1, len(order)+1)
	maxT := math.Inf(-1)
	for _, idx := range order {
		p := dirty.Points[idx]
		sec := int(p.T)
		x, y := roundCm(p.Pos.X), roundCm(p.Pos.Y)
		tr.t = append(tr.t, sec)
		tr.x = append(tr.x, x)
		tr.y = append(tr.y, y)
		tail := append([]byte{','}, strconv.AppendFloat(nil, x, 'f', -1, 64)...)
		tail = append(tail, ',')
		tail = strconv.AppendFloat(tail, y, 'f', -1, 64)
		tr.tail = append(tr.tail, append(tail, '\n'))

		// stream.Reorderer's rule: a row is dropped iff its time is
		// below the highest time seen for the source minus the lateness.
		// A cycle starts above everything the cycle before it held, so
		// the flags repeat from cycle to cycle.
		late := 0
		if p.T < maxT-streamLateness {
			late = 1
		} else if p.T > maxT {
			maxT = p.T
		}
		tr.latePre = append(tr.latePre, tr.latePre[len(tr.latePre)-1]+late)
		tr.sqErrPre = append(tr.sqErrPre, tr.sqErrPre[len(tr.sqErrPre)-1]+geo.Pt(x, y).DistSq(tr.truth[sec]))
	}
	return tr
}

func roundCm(v float64) float64 { return math.Round(v*100) / 100 }

// arrivalOrder displaces rows inside one cycle of n time-ordered rows
// and returns the order they are sent in. Displacement never crosses
// the end of the cycle.
func arrivalOrder(n int, rng *rand.Rand) []int {
	type slot struct {
		row int
		key float64
	}
	slots := make([]slot, n)
	for i := range slots {
		d := 0
		switch u := rng.Float64(); {
		case u < farShare:
			d = farMinRows + rng.Intn(farMaxRows-farMinRows+1)
		case u < farShare+nearShare:
			d = 1 + rng.Intn(nearMaxRows)
		}
		if i+d > n-1 {
			d = n - 1 - i
		}
		key := float64(i)
		if d > 0 {
			key = float64(i+d) + 0.5 // after the row whose place it takes
		}
		slots[i] = slot{row: i, key: key}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].key < slots[b].key })
	order := make([]int, n)
	for i, s := range slots {
		order[i] = s.row
	}
	return order
}

// session is one ingest session's share of the feed: the sixteen trips
// of one client under an id prefix of its own, so sessions never share
// watermark state.
type session struct {
	prefix string
	t0     int // event time of the session's first cycle, in seconds
	ids    [sourcesPerSession]string
	trips  []*trip
}

func (f *feed) session(prefix string, client, t0 int) *session {
	s := &session{prefix: prefix, t0: t0, trips: f.trips[client*sourcesPerSession : (client+1)*sourcesPerSession]}
	for j := range s.ids {
		s.ids[j] = prefix + "-s" + strconv.Itoa(j)
	}
	return s
}

// at returns row r of chunk k: the source index, its event time and the
// trip row it replays.
func (s *session) at(k, r int) (j int, t float64, tr *trip, row int) {
	j = r % sourcesPerSession
	tr = s.trips[j]
	pos := k*rowsPerSource + r/sourcesPerSession
	cycle, row := pos/tr.rows(), pos%tr.rows()
	return j, float64(s.t0 + tr.t[row] + cycle*tr.span()), tr, row
}

// appendChunk appends chunk k as the "id,t,x,y" rows (no header) that
// POST /v1/stream/ingest accepts.
func (s *session) appendChunk(dst []byte, k int) []byte {
	for r := 0; r < chunkRows; r++ {
		j, t, tr, row := s.at(k, r)
		dst = append(dst, s.ids[j]...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(t), 10)
		dst = append(dst, tr.tail[row]...)
	}
	return dst
}

// srcPoint is one decoded feed row, in the shape the serving path folds
// through stream.FanOut.
type srcPoint struct {
	src string
	pt  trajectory.Point
}

// events returns chunk k decoded, for the traced run's shadow replay.
func (s *session) events(k int) []stream.Event[srcPoint] {
	out := make([]stream.Event[srcPoint], chunkRows)
	for r := range out {
		j, t, tr, row := s.at(k, r)
		out[r] = stream.Event[srcPoint]{Time: t, Value: srcPoint{
			src: s.ids[j], pt: trajectory.Point{T: t, Pos: geo.Pt(tr.x[row], tr.y[row])},
		}}
	}
	return out
}

// prefixOver sums a per-cycle prefix table over the first n arrival
// rows of a trip.
func prefixOver[T int | float64](pre []T, rowsPerCycle, n int) T {
	cycles, rest := n/rowsPerCycle, n%rowsPerCycle
	return T(cycles)*pre[rowsPerCycle] + pre[rest]
}

// lateCount is the number of rows stream.Reorderer drops as late among
// the first chunks chunks of the session.
func (s *session) lateCount(chunks int) int {
	n := 0
	for _, tr := range s.trips {
		n += prefixOver(tr.latePre, tr.rows(), chunks*rowsPerSource)
	}
	return n
}

// inputSqErr is the squared error against truth summed over the rows of
// the first chunks chunks.
func (s *session) inputSqErr(chunks int) float64 {
	var sum float64
	for _, tr := range s.trips {
		sum += prefixOver(tr.sqErrPre, tr.rows(), chunks*rowsPerSource)
	}
	return sum
}

// sourceIndex parses the "-s<j>" suffix of one of the session's ids.
func (s *session) sourceIndex(id []byte) (int, bool) {
	if len(id) <= len(s.prefix)+2 || !bytes.HasPrefix(id, []byte(s.prefix)) {
		return 0, false
	}
	j, err := strconv.Atoi(string(id[len(s.prefix)+2:]))
	return j, err == nil && j >= 0 && j < sourcesPerSession
}

// truthAt is source j's true position at an output timestamp.
func (s *session) truthAt(j int, t float64) geo.Point {
	tr := s.trips[j]
	sec := math.Floor(t)
	i := (int(sec) - s.t0) % tr.span()
	a := tr.truth[i]
	if frac := t - sec; frac > 0 {
		return a.Lerp(tr.truth[(i+1)%tr.span()], frac)
	}
	return a
}

// countInWindow counts the rows of the first chunks chunks that lie in
// w: the reference a history range query is checked against.
func (s *session) countInWindow(w window, chunks int) int {
	n := 0
	w.t0, w.t1 = w.t0-float64(s.t0), w.t1-float64(s.t0)
	if w.t1 < 0 {
		return 0
	}
	for _, tr := range s.trips {
		sent := chunks * rowsPerSource
		span := float64(tr.span())
		for c := int(math.Max(0, math.Floor(w.t0/span))); c <= int(math.Floor(w.t1/span)); c++ {
			base := c * tr.rows()
			if base >= sent {
				break
			}
			off := float64(c) * span
			for i, sec := range tr.t {
				if base+i >= sent {
					break
				}
				if t := float64(sec) + off; t < w.t0 || t > w.t1 {
					continue
				}
				if w.rect.Contains(geo.Pt(tr.x[i], tr.y[i])) {
					n++
				}
			}
		}
	}
	return n
}

// historyWindow draws one range query: a quarter of the city's extent a
// side, historySeconds long — about one trip across the city — starting
// inside the first maxT seconds of event time. The length is a constant
// so that the number of chunks a query has to read does not change with
// the seed.
func (f *feed) historyWindow(rng *rand.Rand, maxT float64) window {
	b := f.graph.Bounds()
	w, h := b.Width()/4, b.Height()/4
	x := b.Min.X + rng.Float64()*(b.Width()-w)
	y := b.Min.Y + rng.Float64()*(b.Height()-h)
	span := math.Min(historySeconds, math.Floor(maxT/2))
	t0 := math.Floor(rng.Float64() * (maxT - span))
	return window{
		rect: geo.Rect{Min: geo.Pt(roundCm(x), roundCm(y)), Max: geo.Pt(roundCm(x+w), roundCm(y+h))},
		t0:   t0, t1: t0 + span,
	}
}

// cleanBodies builds the /v1/clean request bodies: three light ones
// (3 m noise and nothing else) and five heavy ones (8 m noise, 5 %
// outliers, 15 % drops, 3 % duplicates), so the planner picks different
// stage sets. The split is uneven so that the median op is a heavy one
// and not the gap between the two; the heavy settings sit well past the
// planner's thresholds, so no seed flips a stage in or out.
func (f *feed) cleanBodies() []cleanBody {
	out := make([]cleanBody, cleanBodies)
	for b := range out {
		body := cleanBody{heavy: b%8 >= cleanLight, truth: map[string]*trajectory.Trajectory{}}
		var trs []*trajectory.Trajectory
		for k := 0; k < cleanTrajectories; k++ {
			src := f.trips[(b*5+k)%len(f.trips)]
			off := (b*53 + k*17) % src.span()
			pts := make([]trajectory.Point, cleanSeconds)
			for i := range pts {
				pts[i] = trajectory.Point{T: float64(i), Pos: src.truth[(off+i)%src.span()]}
			}
			id := fmt.Sprintf("veh-%d", k)
			truth := &trajectory.Trajectory{ID: id, Points: pts}
			body.truth[id] = truth
			seed := f.seed + int64(100000+b*100+k)
			var dirty *trajectory.Trajectory
			if body.heavy {
				dirty, _ = simulate.Corruption{
					NoiseSigma: 8, OutlierRate: 0.05, OutlierMag: 100, DropRate: 0.15, Seed: seed,
				}.Apply(truth)
				dirty = simulate.DuplicateSamples(dirty, 0.03, seed+4)
			} else {
				dirty = simulate.AddGaussianNoise(truth, 3, seed)
			}
			for i := range dirty.Points {
				p := &dirty.Points[i].Pos
				p.X, p.Y = roundCm(p.X), roundCm(p.Y)
			}
			trs = append(trs, dirty)
		}
		var buf bytes.Buffer
		if err := trajectory.WriteCSV(&buf, trs); err != nil {
			panic(fmt.Sprintf("benchmark: render clean body: %v", err)) // a bytes.Buffer does not fail
		}
		body.csv = buf.Bytes()
		out[b] = body
	}
	return out
}
