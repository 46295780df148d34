package chaos

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/stid"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// traitDataset is a dirty road-constrained dataset every stage in the
// table has real work on: noisy duplicated trips (so the point stages
// and the map matcher fire), one short trajectory (the impute no-op),
// and a few sensor series with a spike (the readings stages).
func traitDataset(g *roadnet.Graph) *core.Dataset {
	ds := &core.Dataset{
		Region:           geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(900, 900)},
		ExpectedInterval: 1,
		MaxSpeed:         15,
		Now:              300,
	}
	for i, tr := range simulate.Trips(g, simulate.TripOptions{NumObjects: 6, MinHops: 6, Speed: 12, SampleInterval: 2, Seed: 31}) {
		dirty := simulate.AddGaussianNoise(tr, 6, int64(40+i))
		dirty, _ = simulate.InjectOutliers(dirty, 0.05, 150, int64(50+i))
		ds.Trajectories = append(ds.Trajectories, simulate.DuplicateSamples(dirty, 0.1, int64(60+i)))
	}
	ds.Trajectories = append(ds.Trajectories, trajectory.New("lone", []trajectory.Point{{T: 3, Pos: geo.Pt(5, 5)}}))
	for i := 0; i < 60; i++ {
		v := 20 + math.Sin(float64(i)/5)
		if i%17 == 0 {
			v += 80
		}
		ds.Readings = append(ds.Readings, stid.Reading{
			SensorID: fmt.Sprintf("s%d", i%3),
			T:        float64(i),
			Pos:      geo.Pt(float64(100*(i%3)), 50),
			Value:    v,
		})
	}
	return ds
}

// sameDataset reports the first bit-level difference between two
// datasets' trajectories and readings.
func sameDataset(got, want *core.Dataset) error {
	if len(got.Trajectories) != len(want.Trajectories) {
		return fmt.Errorf("%d trajectories, want %d", len(got.Trajectories), len(want.Trajectories))
	}
	var gc, wc trajectory.Columns
	for i, w := range want.Trajectories {
		g := got.Trajectories[i]
		gc.FromTrajectory(g)
		wc.FromTrajectory(w)
		if g.ID != w.ID || !gc.Equal(&wc) {
			return fmt.Errorf("trajectory %d: %s/%d points diverge from %s/%d", i, g.ID, g.Len(), w.ID, w.Len())
		}
	}
	if len(got.Readings) != len(want.Readings) {
		return fmt.Errorf("%d readings, want %d", len(got.Readings), len(want.Readings))
	}
	for i := range want.Readings {
		if got.Readings[i] != want.Readings[i] {
			return fmt.Errorf("reading %d: %+v, want %+v", i, got.Readings[i], want.Readings[i])
		}
	}
	return nil
}

// TestStageTraitsAreHonest holds every built-in stage and every chaos
// wrapper to the trait it declares, since the runner trusts it blindly:
// a ReplacesTrajectories stage applied to a copy-on-write clone must
// leave the parent's points bit-identical, and a stage that mutates in
// place must declare nothing.
func TestStageTraitsAreHonest(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 9, NY: 9, Spacing: 100, Jitter: 5, Seed: 30})
	ds := traitDataset(g)
	stages := []core.Stage{
		core.OutlierRemovalStage{},
		core.SmoothingStage{},
		core.TimestampRepairStage{MinGap: 0.5, MaxGap: 5},
		core.DeduplicateStage{},
		core.ImputeStage{},
		core.ThematicRepairStage{},
		core.RouteRecoverStage{Graph: g, Snapper: roadnet.NewSnapper(g, 100), Options: uncertain.MatchOptions{}},
		NewFlakyStage(core.SmoothingStage{}, FlakyOptions{Seed: 4}),
	}
	ctx := context.Background()
	for _, st := range stages {
		if !st.Traits().ReplacesTrajectories {
			t.Fatalf("%s declares %+v; the table is for stages that claim the trait", st.Name(), st.Traits())
		}
		parent := ds.Clone()
		// A degraded or failed Apply is fine; touching the parent is not.
		_ = st.Apply(ctx, parent.CloneCOW())
		if err := sameDataset(parent, ds); err != nil {
			t.Errorf("%s declares ReplacesTrajectories but changed its COW parent: %v", st.Name(), err)
		}
	}

	// The remaining stages declare nothing, and the check has teeth:
	// CorruptStage scatters points in place, which is why.
	for _, st := range []core.Stage{CorruptStage{}, HangStage{}, NewFlakyStage(CorruptStage{}, FlakyOptions{})} {
		if st.Traits() != (core.StageTraits{}) {
			t.Errorf("%s declares %+v, want the conservative zero traits", st.Name(), st.Traits())
		}
	}
	parent := ds.Clone()
	_ = CorruptStage{Seed: 7}.Apply(ctx, parent.CloneCOW())
	if sameDataset(parent, ds) == nil {
		t.Fatal("in-place corruption of a COW clone went unnoticed by sameDataset")
	}
}
