package chaos

import (
	"context"
	"sort"
	"testing"
	"time"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/quality"
	"sidq/internal/simulate"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
)

// chaosDataset is a noisy, duplicated trajectory dataset with ground
// truth — dirty enough that every cleaning stage has work, tame
// enough that any surviving subset of stages leaves accuracy and
// consistency no worse than the input.
func chaosDataset(seed int64) *core.Dataset {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &core.Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Now:              600,
	}
	for i := 0; i < 3; i++ {
		truth := simulate.RandomWalk("v"+string(rune('0'+i)), region, 500, 2, 1, seed+int64(i))
		ds.Truth[truth.ID] = truth
		dirty := simulate.AddGaussianNoise(truth, 5, seed+20+int64(i))
		dirty = simulate.DuplicateSamples(dirty, 0.1, seed+10+int64(i))
		ds.Trajectories = append(ds.Trajectories, dirty)
	}
	return ds
}

func cleaningStages() []core.Stage {
	return []core.Stage{
		core.DeduplicateStage{},
		core.OutlierRemovalStage{},
		core.SmoothingStage{},
	}
}

// TestSuiteSurvivesEveryFailureMode is the chaos harness: every
// injected failure mode (panic, error) against the policy that must
// survive it, checked for completion and the never-worse-than-input
// guarantee.
func TestSuiteSurvivesEveryFailureMode(t *testing.T) {
	for _, sc := range Suite(99, cleaningStages) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			ds := chaosDataset(7)
			res, err := Verify(context.Background(), sc, ds)
			if err != nil {
				t.Fatal(err)
			}
			if !sc.WantErr && len(res.Reports) == 0 {
				t.Fatal("no stage reports")
			}
			// The input dataset is never mutated, chaos or not.
			if got := len(ds.Trajectories); got != 3 {
				t.Fatalf("input mutated: %d trajectories", got)
			}
		})
	}
}

func TestFlakyStageIsDeterministic(t *testing.T) {
	run := func() (panics, errs, delays int) {
		ds := chaosDataset(3)
		// One draw a call, a call a trajectory: six stages over three
		// trajectories for a sequence worth comparing.
		var stages []core.Stage
		for i := 0; i < 6; i++ {
			stages = append(stages, NewFlakyStage(core.DeduplicateStage{},
				FlakyOptions{Seed: int64(2 + i), PanicProb: 0.3, ErrProb: 0.3, DelayProb: 0.1, Delay: time.Millisecond}))
		}
		runner := &core.Runner{Policy: core.SkipStage}
		_, _, _ = runner.Run(context.Background(), ds, stages)
		for _, st := range stages {
			p, e, d := st.(*FlakyStage).Injected()
			panics, errs, delays = panics+p, errs+e, delays+d
		}
		return
	}
	p1, e1, d1 := run()
	p2, e2, d2 := run()
	if p1 != p2 || e1 != e2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", p1, e1, d1, p2, e2, d2)
	}
	if p1+e1+d1 == 0 {
		t.Fatal("no faults injected at these probabilities")
	}
}

func TestSkipPolicyNeverWorseWithAllStagesFailing(t *testing.T) {
	ds := chaosDataset(5)
	stages := make([]core.Stage, 0, 3)
	for i, st := range cleaningStages() {
		stages = append(stages, NewFlakyStage(st, FlakyOptions{Seed: int64(i), ErrProb: 1}))
	}
	r := &core.Runner{Policy: core.SkipStage}
	out, reports, err := r.Run(context.Background(), ds, stages)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, rep := range reports {
		if !rep.Skipped {
			t.Fatalf("report = %+v", rep)
		}
	}
	// Everything skipped means the output is the input, byte for byte.
	ba, aa := ds.Assess(), out.Assess()
	for _, d := range quality.AllDimensions() {
		if ba[d] != aa[d] {
			t.Fatalf("dimension %v moved in an all-skip run: %v -> %v", d, ba[d], aa[d])
		}
	}
}

func TestFaultySourceAccountingThroughReorderer(t *testing.T) {
	events := make([]stream.Event[int], 400)
	for i := range events {
		events[i] = stream.Event[int]{Time: float64(i), Value: i}
	}
	src := NewFaultySource(events, SourceOptions[int]{
		Seed:          31,
		DropProb:      0.1,
		DupProb:       0.05,
		StragglerProb: 0.1,
		StragglerHold: 8,
	})
	re := stream.NewReorderer[int](3) // lateness < straggler hold: some stragglers drop
	out := Drain(src, re)

	if src.Delivered() != src.Input()-src.Dropped()+src.Duplicated() {
		t.Fatalf("delivery accounting: delivered=%d input=%d dropped=%d dup=%d",
			src.Delivered(), src.Input(), src.Dropped(), src.Duplicated())
	}
	// The LateCount/Emitted pair must account for every delivered event.
	if re.State().Emitted+re.LateCount() != src.Delivered() {
		t.Fatalf("reorderer accounting: emitted=%d late=%d delivered=%d",
			re.State().Emitted, re.LateCount(), src.Delivered())
	}
	if len(out) != re.State().Emitted {
		t.Fatalf("drained %d but reorderer emitted %d", len(out), re.State().Emitted)
	}
	if src.Dropped() == 0 || src.Duplicated() == 0 || src.Straggled() == 0 {
		t.Fatalf("faults not exercised: %d/%d/%d", src.Dropped(), src.Duplicated(), src.Straggled())
	}
	if re.LateCount() == 0 {
		t.Fatal("no straggler was late past the watermark")
	}
	times := make([]float64, len(out))
	for i, e := range out {
		times[i] = e.Time
	}
	if !sort.Float64sAreSorted(times) {
		t.Fatal("reorderer output out of order")
	}
}

func TestFaultySourceCorruption(t *testing.T) {
	events := make([]stream.Event[float64], 200)
	for i := range events {
		events[i] = stream.Event[float64]{Time: float64(i), Value: 1}
	}
	src := NewFaultySource(events, SourceOptions[float64]{
		Seed:        8,
		CorruptProb: 0.2,
		Corrupt:     func(v float64) float64 { return v + 1e6 },
	})
	corrupted := 0
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if e.Value > 1e5 {
			corrupted++
		}
	}
	if corrupted == 0 || corrupted != src.Corrupted() {
		t.Fatalf("corruption accounting: saw %d, counter %d", corrupted, src.Corrupted())
	}
}

func TestFaultySourceDeterministic(t *testing.T) {
	events := make([]stream.Event[int], 100)
	for i := range events {
		events[i] = stream.Event[int]{Time: float64(i), Value: i}
	}
	opts := SourceOptions[int]{Seed: 77, DropProb: 0.2, DupProb: 0.1, StragglerProb: 0.1}
	a := NewFaultySource(events, opts)
	b := NewFaultySource(events, opts)
	if a.Delivered() != b.Delivered() || a.Dropped() != b.Dropped() {
		t.Fatal("same seed diverged")
	}
	for {
		ea, oka := a.Next()
		eb, okb := b.Next()
		if oka != okb {
			t.Fatal("length mismatch")
		}
		if !oka {
			break
		}
		if ea != eb {
			t.Fatalf("sequence diverged: %v vs %v", ea, eb)
		}
	}
}
