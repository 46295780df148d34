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
	for i, w := range want.Trajectories {
		g := got.Trajectories[i]
		if g.ID != w.ID || !samePointBits(g.Points, w.Points) {
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

// samePointBits reports whether a and b hold the same samples bit for
// bit (NaN equal to NaN, -0 unequal to +0).
func samePointBits(a, b []trajectory.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) {
			return false
		}
	}
	return true
}

// scatterStage edits its dataset's points in place — the one thing the
// Stage contract forbids.
type scatterStage struct{}

func (scatterStage) Name() string    { return "scatter" }
func (scatterStage) Task() core.Task { return core.FaultCorrection }
func (scatterStage) Apply(_ context.Context, ds *core.Dataset) error {
	for _, tr := range ds.Trajectories {
		for i := range tr.Points {
			tr.Points[i].Pos.X += 500
		}
	}
	return nil
}

// TestStageTraitsAreHonest holds every built-in stage and the chaos
// wrapper to the one trait the Stage contract states, since the runner
// trusts it blindly: a stage applied to a copy-on-write clone replaces
// trajectories and never edits their points, so the clone's parent
// stays bit-identical.
func TestStageTraitsAreHonest(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 9, NY: 9, Spacing: 100, Jitter: 5, Seed: 30})
	ds := traitDataset(g)
	// A deep copy to compare against: ds is the COW parent under test.
	pristine := ds.CloneCOW()
	for i, tr := range pristine.Trajectories {
		pristine.Trajectories[i] = tr.Clone()
	}
	stages := []core.Stage{
		core.OutlierRemovalStage{},
		core.SmoothingStage{},
		core.DeduplicateStage{},
		core.ImputeStage{},
		core.ThematicRepairStage{},
		core.RouteRecoverStage{Graph: g, Snapper: roadnet.NewSnapper(g, 100), Options: uncertain.MatchOptions{}},
		NewFlakyStage(core.SmoothingStage{}, FlakyOptions{Seed: 4}),
	}
	ctx := context.Background()
	for _, st := range stages {
		// A degraded or failed Apply is fine; touching the parent is not.
		_ = st.Apply(ctx, ds.CloneCOW())
		if err := sameDataset(ds, pristine); err != nil {
			t.Errorf("%s changed the parent of its COW clone: %v", st.Name(), err)
		}
	}

	// The check has teeth: an in-place edit of a COW clone shows.
	_ = scatterStage{}.Apply(ctx, ds.CloneCOW())
	if sameDataset(ds, pristine) == nil {
		t.Fatal("in-place corruption of a COW clone went unnoticed by sameDataset")
	}
}
