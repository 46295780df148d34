// Package simulate generates the synthetic spatial IoT workloads used
// throughout sidq in place of proprietary real-world traces: vehicle
// trips over road networks, GPS corruption operators, spatiotemporal
// sensor fields, RSSI radio environments, symbolic (RFID-style)
// tracking, and POI check-in streams.
//
// Every generator is driven by an explicit seed and is fully
// deterministic, so experiments and tests are reproducible.
package simulate

import (
	"fmt"
	"math"
	"math/rand"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/trajectory"
)

// TripOptions configures the road-network trip generator.
type TripOptions struct {
	NumObjects     int     // number of vehicles (default 10)
	MinHops        int     // minimum shortest-path node count per trip (default 5)
	SampleInterval float64 // seconds between GPS samples (default 1)
	Speed          float64 // cruise speed in m/s (default edge SpeedCap)
	Seed           int64
}

// Trips generates ground-truth vehicle trajectories on g: each vehicle
// drives the shortest path between random origin/destination nodes at
// constant speed, sampled every SampleInterval seconds. Trips that fail
// to route (disconnected picks) are retried with new endpoints.
func Trips(g *roadnet.Graph, opt TripOptions) []*trajectory.Trajectory {
	if opt.NumObjects <= 0 {
		opt.NumObjects = 10
	}
	if opt.MinHops <= 0 {
		opt.MinHops = 5
	}
	if opt.SampleInterval <= 0 {
		opt.SampleInterval = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	out := make([]*trajectory.Trajectory, 0, opt.NumObjects)
	for i := 0; i < opt.NumObjects; i++ {
		var path roadnet.Path
		for attempt := 0; ; attempt++ {
			a := roadnet.NodeID(rng.Intn(g.NumNodes()))
			b := roadnet.NodeID(rng.Intn(g.NumNodes()))
			p, err := g.ShortestPath(a, b)
			if err == nil && len(p.Nodes) >= opt.MinHops {
				path = p
				break
			}
			if attempt > 200 {
				// Give up on the hop constraint; accept any routable pair.
				if err == nil {
					path = p
					break
				}
			}
		}
		speed := opt.Speed
		if speed <= 0 {
			if len(path.Edges) > 0 {
				speed = g.Edge(path.Edges[0]).SpeedCap
			} else {
				speed = 13.9
			}
		}
		tr := driveTrajectory(g, path, speed, opt.SampleInterval, fmt.Sprintf("veh-%d", i))
		out = append(out, tr)
	}
	return out
}

// driveTrajectory samples constant-speed motion along a path geometry.
func driveTrajectory(g *roadnet.Graph, path roadnet.Path, speed, dt float64, id string) *trajectory.Trajectory {
	pl := g.Geometry(path)
	total := pl.Length()
	var pts []trajectory.Point
	for d, t := 0.0, 0.0; d < total; d, t = d+speed*dt, t+dt {
		pts = append(pts, trajectory.Point{T: t, Pos: pl.PointAt(d)})
	}
	pts = append(pts, trajectory.Point{T: total / speed, Pos: pl.PointAt(total)})
	return trajectory.New(id, pts)
}

// Trip is a generated trip together with its route, for experiments
// that need the ground-truth path (e.g. route recovery evaluation).
type Trip struct {
	Truth *trajectory.Trajectory
	Path  roadnet.Path
}

// TripsWithRoutes is like Trips but also returns the ground-truth path
// of every trip.
func TripsWithRoutes(g *roadnet.Graph, opt TripOptions) []Trip {
	if opt.NumObjects <= 0 {
		opt.NumObjects = 10
	}
	if opt.MinHops <= 0 {
		opt.MinHops = 5
	}
	if opt.SampleInterval <= 0 {
		opt.SampleInterval = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	out := make([]Trip, 0, opt.NumObjects)
	for i := 0; i < opt.NumObjects; i++ {
		var path roadnet.Path
		for attempt := 0; ; attempt++ {
			a := roadnet.NodeID(rng.Intn(g.NumNodes()))
			b := roadnet.NodeID(rng.Intn(g.NumNodes()))
			p, err := g.ShortestPath(a, b)
			if err == nil && (len(p.Nodes) >= opt.MinHops || attempt > 200) {
				path = p
				break
			}
		}
		speed := opt.Speed
		if speed <= 0 {
			if len(path.Edges) > 0 {
				speed = g.Edge(path.Edges[0]).SpeedCap
			} else {
				speed = 13.9
			}
		}
		tr := driveTrajectory(g, path, speed, opt.SampleInterval, fmt.Sprintf("veh-%d", i))
		out = append(out, Trip{Truth: tr, Path: path})
	}
	return out
}

// RandomWalk generates a free-space random-walk trajectory inside
// bounds: heading changes follow a bounded random turn at every step.
// It models pedestrian-like motion for tests that do not need a road
// network.
func RandomWalk(id string, bounds geo.Rect, n int, speed, dt float64, seed int64) *trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	pos := geo.Pt(
		bounds.Min.X+rng.Float64()*bounds.Width(),
		bounds.Min.Y+rng.Float64()*bounds.Height(),
	)
	heading := rng.Float64() * 2 * math.Pi
	pts := make([]trajectory.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, trajectory.Point{T: float64(i) * dt, Pos: pos})
		heading += (rng.Float64() - 0.5) * 0.6
		step := geo.Pt(speed*dt*math.Cos(heading), speed*dt*math.Sin(heading))
		next := pos.Add(step)
		// Reflect at the boundary.
		if next.X < bounds.Min.X || next.X > bounds.Max.X {
			heading = math.Pi - heading
			next.X = pos.X
		}
		if next.Y < bounds.Min.Y || next.Y > bounds.Max.Y {
			heading = -heading
			next.Y = pos.Y
		}
		pos = next
	}
	return trajectory.New(id, pts)
}
