package uncertain_test

// Concurrency hammer for the road-network query engine: many
// goroutines map-match the same trajectories against one shared graph,
// exercising the engine scratch pool, the sharded route cache, and the
// snapper scratch pool simultaneously. Run
// under -race (see `make race`) this is the engine's data-race gate;
// in any mode it also asserts that concurrency never changes results.

import (
	"math"
	"sync"
	"testing"

	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

func TestConcurrentMapMatchHammer(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{
		NX: 10, NY: 10, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 51,
	})
	snapper := roadnet.NewSnapper(g, 100)
	trips := simulate.Trips(g, simulate.TripOptions{
		NumObjects: 4, MinHops: 12, Speed: 12, SampleInterval: 1, Seed: 52,
	})
	noisy := make([]*trajectory.Trajectory, len(trips))
	for i, tr := range trips {
		noisy[i] = simulate.AddGaussianNoise(tr, 10, int64(53+i))
	}
	opt := uncertain.MatchOptions{EmissionSigma: 12}

	// Serial reference results, computed on a fresh engine.
	want := make([]uncertain.MatchResult, len(noisy))
	for i, tr := range noisy {
		res, err := uncertain.MapMatch(g, snapper, tr, opt)
		if err != nil {
			t.Fatalf("serial MapMatch %d: %v", i, err)
		}
		want[i] = res
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, tr := range noisy {
					res, err := uncertain.MapMatch(g, snapper, tr, opt)
					if err != nil {
						errs <- err
						return
					}
					if !sameSnaps(res.Snaps, want[i].Snaps) ||
						!samePoints(res.Recovered, want[i].Recovered) {
						t.Errorf("worker %d round %d: trajectory %d diverged under concurrency", w, r, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent MapMatch: %v", err)
	}
}

// TestConcurrentNetworkDistHammer drives SnapDists — cache lookups,
// sweeps on pooled scratch and cache stores — from many goroutines over
// a small set of hot transitions on one cold engine, asserting every
// caller sees the value a serial pass over an identical graph computed.
func TestConcurrentNetworkDistHammer(t *testing.T) {
	city := func() *roadnet.Graph {
		return roadnet.GridCity(roadnet.GridCityOptions{
			NX: 8, NY: 8, Spacing: 100, Jitter: 5, RemoveFrac: 0.3, Seed: 61,
		})
	}
	g := city()
	type q struct {
		a  roadnet.Snap
		bs []roadnet.Snap
	}
	edge := func(i int) roadnet.EdgeID { return roadnet.EdgeID(i % g.NumEdges()) }
	pairs := make([]q, 64)
	for i := range pairs {
		pairs[i] = q{
			a: roadnet.Snap{Edge: edge(i * 7), Param: 0.25},
			bs: []roadnet.Snap{
				{Edge: edge(i*13 + 5), Param: 0.75},
				{Edge: edge(i*13 + 6), Param: 0.5},
				{Edge: edge(i * 7), Param: 0.1}, // backward on a's own edge
			},
		}
	}
	ref := city().Engine() // the hammered engine starts cold
	want := make([][3]float64, len(pairs))
	for i, p := range pairs {
		ref.SnapDists(p.a, p.bs, math.Inf(1), want[i][:])
	}
	eng := g.Engine()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got [3]float64
			for r := 0; r < 20; r++ {
				for i, p := range pairs {
					eng.SnapDists(p.a, p.bs, math.Inf(1), got[:])
					if got != want[i] {
						t.Errorf("pair %d: got %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func sameSnaps(a, b []roadnet.Snap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func samePoints(a, b *trajectory.Trajectory) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}
