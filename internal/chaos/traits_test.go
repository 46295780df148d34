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

// scatterStage edits the points it is given in place — the one thing
// the Stage contract forbids.
type scatterStage struct{}

func (scatterStage) Name() string    { return "scatter" }
func (scatterStage) Task() core.Task { return core.FaultCorrection }
func (scatterStage) CleanPoints(_ context.Context, _ *core.StageRun, tr *trajectory.Trajectory, _ []trajectory.Point) ([]trajectory.Point, error) {
	for i := range tr.Points {
		tr.Points[i].Pos.X += 500
	}
	return tr.Points, nil
}
func (scatterStage) CleanReadings(_ context.Context, _ *core.StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	return rs, nil
}

// deepCopy is ds with every trajectory's points and the readings copied.
func deepCopy(ds *core.Dataset) *core.Dataset {
	out := *ds
	out.Trajectories = make([]*trajectory.Trajectory, len(ds.Trajectories))
	for i, tr := range ds.Trajectories {
		out.Trajectories[i] = tr.Clone()
	}
	out.Readings = append([]stid.Reading(nil), ds.Readings...)
	return &out
}

// TestStageTraitsAreHonest holds every built-in stage and the chaos
// wrapper to what the Stage contract states, since the runner trusts it
// blindly: a stage appends its output into the buffer it is handed and
// never edits the points or readings it is given, so a run leaves its
// input bit-identical; and it keeps no view of its buffer, so a second
// trajectory cleaned through the same buffers leaves the first one's
// output as it was.
func TestStageTraitsAreHonest(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 9, NY: 9, Spacing: 100, Jitter: 5, Seed: 30})
	ds := traitDataset(g)
	pristine := deepCopy(ds)
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
	runner := &core.Runner{Policy: core.SkipStage}
	for _, st := range stages {
		// A degraded or failed call is fine; touching the input is not.
		out, _, _ := runner.Run(ctx, ds, []core.Stage{st})
		if err := sameDataset(ds, pristine); err != nil {
			t.Errorf("%s changed its run's input: %v", st.Name(), err)
		}
		// Each trajectory alone, then the whole dataset through the
		// same pooled buffers: every output must match the lone run's.
		for i, tr := range ds.Trajectories {
			one := *ds
			one.Trajectories, one.Readings = []*trajectory.Trajectory{tr}, nil
			alone, _, _ := runner.Run(ctx, &one, []core.Stage{st})
			if !samePointBits(alone.Trajectories[0].Points, out.Trajectories[i].Points) {
				t.Errorf("%s: trajectory %d cleaned alone differs from the whole run", st.Name(), i)
			}
		}
	}

	// The check has teeth: an in-place edit of the input shows.
	_, _, _ = runner.Run(ctx, ds, []core.Stage{scatterStage{}})
	if sameDataset(ds, pristine) == nil {
		t.Fatal("in-place corruption of a run's input went unnoticed by sameDataset")
	}
}
