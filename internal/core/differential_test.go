package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/integrate"
	"sidq/internal/outlier"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// spikyDataset builds a dataset of noisy random walks with teleport
// spikes and duplicate timestamps, plus a few readings so the readings
// pass has work.
func spikyDataset(rng *rand.Rand, nTraj, nPts int) *Dataset {
	ds := &Dataset{MaxSpeed: 10, ExpectedInterval: 1, Now: float64(nPts)}
	for k := 0; k < nTraj; k++ {
		pts := make([]trajectory.Point, nPts)
		x, y, t := rng.Float64()*100, rng.Float64()*100, 0.0
		for i := range pts {
			if rng.Intn(15) == 0 {
				x += rng.NormFloat64() * 400
				y += rng.NormFloat64() * 400
			} else {
				x += rng.NormFloat64() * 3
				y += rng.NormFloat64() * 3
			}
			if rng.Intn(10) != 0 {
				t += 1 + rng.Float64()
			}
			pts[i] = trajectory.Point{T: t, Pos: geo.Pt(x, y)}
		}
		ds.Trajectories = append(ds.Trajectories, trajectory.New(fmt.Sprintf("d%d", k), pts))
	}
	for i := 0; i < 40; i++ {
		ds.Readings = append(ds.Readings, stid.Reading{
			SensorID: fmt.Sprintf("s%d", i%3),
			T:        float64(i),
			Pos:      geo.Pt(rng.Float64()*100, rng.Float64()*100),
			Value:    20 + rng.NormFloat64(),
		})
	}
	return ds
}

// hostileDataset is the fixed edge-case companion of spikyDataset:
// every trajectory length below the statistical detector's n<5 floor,
// NaN/±Inf coordinates and timestamps, and duplicate-timestamp runs.
func hostileDataset() *Dataset {
	nan, inf := math.NaN(), math.Inf(1)
	pt := func(t, x, y float64) trajectory.Point { return trajectory.Point{T: t, Pos: geo.Pt(x, y)} }
	walk := []trajectory.Point{pt(0, 0, 0), pt(1, 3, 1), pt(2, 900, -900), pt(3, 9, 2), pt(4, 12, 4), pt(5, 15, 3), pt(6, 18, 5)}
	ds := spikyDataset(rand.New(rand.NewSource(75)), 0, 0)
	for n := 0; n <= 4; n++ {
		ds.Trajectories = append(ds.Trajectories, &trajectory.Trajectory{ID: fmt.Sprintf("short%d", n), Points: walk[:n]})
	}
	for i, p := range []trajectory.Point{
		pt(3, nan, 2), pt(nan, 6, 1), pt(4, inf, 4), pt(6, 18, -inf), pt(inf, 18, 5), pt(1, 3, 1),
	} {
		pts := append([]trajectory.Point(nil), walk...)
		pts[1+i%5] = p
		pts = append(pts, pts[2], pt(6, 18, 5)) // exact repeats, duplicate timestamps
		ds.Trajectories = append(ds.Trajectories, &trajectory.Trajectory{ID: fmt.Sprintf("hostile%d", i), Points: pts})
	}
	return ds
}

// aosOutlierRemoval is the stage's first wiring, kept as the test
// reference: per-trajectory detectors with fresh flags, merged flags,
// compaction, then the readings pass. The detectors' own
// bit-equivalence with their reference bodies is pinned in
// outlier/differential_test.go.
func aosOutlierRemoval(ds *Dataset) {
	for i, tr := range ds.Trajectories {
		speedFlags := outlier.SpeedConstraint(tr.Points, ds.MaxSpeed, nil)
		statFlags := outlier.Statistical(tr.Points, outlier.StatisticalOptions{}, nil)
		merged := make([]bool, tr.Len())
		for j := range merged {
			merged[j] = speedFlags[j] || statFlags[j]
		}
		ds.Trajectories[i] = outlier.Remove(tr, merged)
	}
	if len(ds.Readings) > 0 {
		flags := outlier.Temporal(ds.Readings, outlier.TemporalOptions{})
		ds.Readings = outlier.RemoveReadings(ds.Readings, flags)
	}
}

func sameTrajectories(t *testing.T, got, want []*trajectory.Trajectory) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trajectory count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("trajectory %d: id %q want %q", i, got[i].ID, want[i].ID)
		}
		if got[i].Len() != want[i].Len() {
			t.Fatalf("trajectory %d: %d points, want %d", i, got[i].Len(), want[i].Len())
		}
		for j := range want[i].Points {
			a, b := got[i].Points[j], want[i].Points[j]
			if math.Float64bits(a.T) != math.Float64bits(b.T) ||
				math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
				math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) {
				t.Fatalf("trajectory %d point %d diverged: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

// TestOutlierRemovalColumnarMatchesAoS pins the stage, whose flag
// buffers are pooled and reused across trajectories, against its
// reference wiring bit for bit, including the readings pass, across the
// hostile dataset and random dirty ones.
func TestOutlierRemovalColumnarMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 26; trial++ {
		ds := hostileDataset()
		if trial > 0 {
			ds = spikyDataset(rng, 1+rng.Intn(5), rng.Intn(120))
		}
		if trial%3 == 0 {
			ds.MaxSpeed = 5
		}

		want := ds.CloneCOW()
		aosOutlierRemoval(want)

		got := ds.CloneCOW()
		if err := (OutlierRemovalStage{}).Apply(context.Background(), got); err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		sameTrajectories(t, got.Trajectories, want.Trajectories)
		if len(got.Readings) != len(want.Readings) {
			t.Fatalf("trial %d: %d readings, want %d", trial, len(got.Readings), len(want.Readings))
		}
		for i := range want.Readings {
			if got.Readings[i] != want.Readings[i] {
				t.Fatalf("trial %d: reading %d diverged", trial, i)
			}
		}
	}
}

// raceRuns runs stages over ds from n goroutines at once — the shape
// concurrent /v1/clean requests have — and returns every output.
func raceRuns(stages []Stage, ds *Dataset, n int) []*Dataset {
	outs := make([]*Dataset, n)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, _ = DefaultRunner().Run(context.Background(), ds, stages)
		}(i)
	}
	wg.Wait()
	return outs
}

// TestOutlierRemovalColumnarAcrossWorkers races whole runs of the
// stage over one shared input and requires every output to be
// identical to a lone run's.
func TestOutlierRemovalColumnarAcrossWorkers(t *testing.T) {
	ds := spikyDataset(rand.New(rand.NewSource(72)), 9, 150)
	stages := []Stage{OutlierRemovalStage{}}
	base, _, _ := DefaultRunner().Run(context.Background(), ds, stages)
	for _, got := range raceRuns(stages, ds, 4) {
		sameTrajectories(t, got.Trajectories, base.Trajectories)
	}
}

// aosDeduplicate is DeduplicateStage's first implementation, kept as
// the test reference: per-trajectory map[Point]bool dedup,
// then the readings merge.
func aosDeduplicate(ds *Dataset) {
	for i, tr := range ds.Trajectories {
		out := &trajectory.Trajectory{ID: tr.ID}
		seen := make(map[trajectory.Point]bool, tr.Len())
		for _, p := range tr.Points {
			if seen[p] {
				continue
			}
			seen[p] = true
			out.Points = append(out.Points, p)
		}
		ds.Trajectories[i] = out
	}
	if len(ds.Readings) > 0 {
		ds.Readings = integrate.Deduplicate(ds.Readings, 1, 1)
	}
}

// dupDataset builds trajectories rich in exact duplicates plus the
// float equality edge cases (NaN points, ±0 coordinates) and readings
// for the readings pass.
func dupDataset(rng *rand.Rand, nTraj, nPts int) *Dataset {
	ds := spikyDataset(rng, nTraj, 0)
	for k := range ds.Trajectories {
		pts := make([]trajectory.Point, 0, nPts)
		for len(pts) < nPts {
			switch rng.Intn(6) {
			case 0: // exact repeat of an earlier point
				if len(pts) > 0 {
					pts = append(pts, pts[rng.Intn(len(pts))])
					continue
				}
			case 1: // NaN point, possibly repeated verbatim
				pts = append(pts, trajectory.Point{T: math.NaN(), Pos: geo.Pt(1, 2)})
				continue
			case 2: // zero spellings
				pts = append(pts, trajectory.Point{
					T:   float64(rng.Intn(3)),
					Pos: geo.Pt(math.Copysign(0, -1), 0),
				})
				continue
			}
			pts = append(pts, trajectory.Point{
				T:   float64(rng.Intn(8)),
				Pos: geo.Pt(float64(rng.Intn(4)), float64(rng.Intn(4))),
			})
		}
		ds.Trajectories[k].Points = pts
	}
	return ds
}

// TestDeduplicateColumnarMatchesAoS pins the dedup stage against its
// reference implementation bit for bit, including
// map-key float semantics (NaN kept, +0 == -0) and the readings pass.
func TestDeduplicateColumnarMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 26; trial++ {
		ds := hostileDataset()
		if trial > 0 {
			ds = dupDataset(rng, 1+rng.Intn(5), rng.Intn(120))
		}
		want := ds.CloneCOW()
		aosDeduplicate(want)

		got := ds.CloneCOW()
		if err := (DeduplicateStage{}).Apply(context.Background(), got); err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		sameTrajectories(t, got.Trajectories, want.Trajectories)
		if len(got.Readings) != len(want.Readings) {
			t.Fatalf("trial %d: %d readings, want %d", trial, len(got.Readings), len(want.Readings))
		}
		for i := range want.Readings {
			if got.Readings[i] != want.Readings[i] {
				t.Fatalf("trial %d: reading %d diverged", trial, i)
			}
		}
	}
}

// TestDeduplicateColumnarAcrossWorkers races whole runs of the dedup
// stage over one shared input and requires every output to be identical
// to a lone run's.
func TestDeduplicateColumnarAcrossWorkers(t *testing.T) {
	ds := dupDataset(rand.New(rand.NewSource(74)), 9, 150)
	stages := []Stage{DeduplicateStage{}}
	base, _, _ := DefaultRunner().Run(context.Background(), ds, stages)
	for _, out := range raceRuns(stages, ds, 4) {
		sameTrajectories(t, out.Trajectories, base.Trajectories)
	}
}
