package simulate

// Deterministic multi-source replay feed for the load harness
// (cmd/sidqload). A Replay owns a fixed set of corrupted vehicle
// trajectories (grid city + Trips + Corruption, all seeded) and
// serves them as an endless sequence of ingest chunks: chunk k of
// stream i is a pure function of (seed, i, k), so a fixed-seed load
// profile replays the exact same bytes on every run. Each stream is an
// independent id namespace ("w<stream>-s<source>"), and when a stream
// exhausts a source's trajectory the replay wraps with a whole-cycle
// time offset, keeping every source's event times strictly
// non-decreasing — the property the per-source lateness watermark
// needs to never drop a wrapped replay as late.

import (
	"fmt"
	"strconv"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/trajectory"
)

// ReplayOptions configures the load-harness feed: trips over an 8x8
// grid city, corrupted with 5 m GPS noise, 2 % outliers of 100 m and
// 5 % dropped samples.
type ReplayOptions struct {
	Seed    int64
	Sources int // sources per stream (default 4)
}

// replaySource is one base trajectory laid out flat for cheap replay.
type replaySource struct {
	t, x, y []float64
	span    float64 // one full cycle in event-time seconds
}

// Replay is the deterministic feed. Safe for concurrent use: all state
// is immutable after NewReplay.
type Replay struct {
	opt     ReplayOptions
	sources []replaySource
	extent  geo.Rect
}

// NewReplay builds the feed's base trajectories. The construction cost
// is paid once; Chunk afterwards only formats precomputed samples.
func NewReplay(opt ReplayOptions) *Replay {
	if opt.Sources <= 0 {
		opt.Sources = 4
	}
	g := roadnet.GridCity(roadnet.GridCityOptions{
		NX: 8, NY: 8, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: opt.Seed,
	})
	trips := Trips(g, TripOptions{
		NumObjects: opt.Sources, MinHops: 8, Speed: 12, SampleInterval: 1, Seed: opt.Seed + 1,
	})
	r := &Replay{opt: opt}
	first := true
	for i, truth := range trips {
		c := Corruption{
			NoiseSigma:  5,
			OutlierRate: 0.02,
			OutlierMag:  100,
			DropRate:    0.05,
			Seed:        opt.Seed + int64(i),
		}
		tr, _ := c.Apply(truth)
		if len(tr.Points) == 0 {
			tr = truth // a fully dropped trajectory cannot feed a stream
		}
		src := replaySource{
			t: make([]float64, len(tr.Points)),
			x: make([]float64, len(tr.Points)),
			y: make([]float64, len(tr.Points)),
		}
		t0 := tr.Points[0].T
		for j, p := range tr.Points {
			src.t[j] = p.T - t0
			src.x[j] = p.Pos.X
			src.y[j] = p.Pos.Y
			if first {
				r.extent = geo.RectFromPoints(p.Pos)
				first = false
			} else {
				r.extent = r.extent.ExtendPoint(p.Pos)
			}
		}
		src.span = src.t[len(src.t)-1] + 1 // +1 sample interval between cycles
		r.sources = append(r.sources, src)
	}
	return r
}

// Extent returns the bounding rect of every sample the feed can emit —
// the window generator for history range queries.
func (r *Replay) Extent() geo.Rect { return r.extent }

// Span returns the longest single-cycle duration across sources, in
// event-time seconds: chunk k's samples all fall in roughly
// [0, Span * (1 + k*size/points-per-cycle)).
func (r *Replay) Span() float64 {
	var max float64
	for _, s := range r.sources {
		if s.span > max {
			max = s.span
		}
	}
	return max
}

// at returns source j's sample at replay position p (wrapping with a
// whole-cycle time offset).
func (s *replaySource) at(p int) (t, x, y float64) {
	n := len(s.t)
	idx, cycle := p%n, p/n
	return s.t[idx] + float64(cycle)*s.span, s.x[idx], s.y[idx]
}

// AppendChunk appends chunk k of the given stream to dst as the
// "id,t,x,y" CSV rows POST /v1/stream/ingest accepts (no header), and
// returns the extended buffer.
func (r *Replay) AppendChunk(dst []byte, stream, chunk, size int) []byte {
	base := chunk * size
	for n := 0; n < size; n++ {
		g := base + n
		j := g % len(r.sources)
		t, x, y := r.sources[j].at(g / len(r.sources))
		dst = append(dst, sourceID(stream, j)...)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, t, 'f', -1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, x, 'f', -1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, y, 'f', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// BatchCSV renders the feed's first n base trajectories (all of them
// when n <= 0 or exceeds Sources) as standard trajectory CSV — the
// request body for batch /v1/clean traffic.
func (r *Replay) BatchCSV(n int) []byte {
	if n <= 0 || n > len(r.sources) {
		n = len(r.sources)
	}
	trs := make([]*trajectory.Trajectory, 0, n)
	for j := 0; j < n; j++ {
		s := &r.sources[j]
		pts := make([]trajectory.Point, len(s.t))
		for i := range s.t {
			pts[i] = trajectory.Point{T: s.t[i], Pos: geo.Pt(s.x[i], s.y[i])}
		}
		trs = append(trs, trajectory.New(sourceID(0, j), pts))
	}
	var buf csvBuffer
	if err := trajectory.WriteCSV(&buf, trs); err != nil {
		// WriteCSV to a memory buffer cannot fail; a change that makes it
		// fail should be loud.
		panic(fmt.Sprintf("simulate: BatchCSV: %v", err))
	}
	return buf.b
}

// csvBuffer is a minimal io.Writer over a byte slice.
type csvBuffer struct{ b []byte }

func (w *csvBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// sourceID names source j of a stream. Streams are independent id
// namespaces so concurrent sessions never share watermark state.
func sourceID(stream, j int) string {
	return "w" + strconv.Itoa(stream) + "-s" + strconv.Itoa(j)
}
