package sidq_test

// Golden byte-equivalence fixtures for the cleaning kernels. The hashes
// in testdata/golden_columnar.json were generated from the first
// implementations of these kernels; every rewrite of one must reproduce
// those outputs bit for bit (trajectories are serialized with
// WriteCSV's shortest-round-trip float format, so a byte-equal hash
// means bit-equal float64s). The file keeps its name from the
// struct-of-arrays rewrite it was made to guard.
//
// Regenerate only when an output change is intended:
//
//	go test -run TestGoldenColumnar -update-golden .

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sidq/internal/core"
	"sidq/internal/exp"
	"sidq/internal/geo"
	"sidq/internal/outlier"
	"sidq/internal/reduce"
	"sidq/internal/refine"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_columnar.json from the current implementation")

const goldenPath = "testdata/golden_columnar.json"

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func hashFlags(flags []bool) string {
	b := make([]byte, len(flags))
	for i, f := range flags {
		if f {
			b[i] = 1
		}
	}
	return hashBytes(b)
}

func hashTrajectories(t *testing.T, trs ...*trajectory.Trajectory) string {
	t.Helper()
	var sb strings.Builder
	if err := trajectory.WriteCSV(&sb, trs); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return hashBytes([]byte(sb.String()))
}

// goldenInput builds the standard dirty track every kernel is pinned
// on: a seeded random walk with Gaussian GPS noise.
func goldenInput(seed int64) *trajectory.Trajectory {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(600, 600)}
	truth := simulate.RandomWalk(fmt.Sprintf("g%d", seed), region, 300, 2.5, 1, seed)
	return simulate.AddGaussianNoise(truth, 8, seed+100)
}

// goldenDataset builds a small multi-trajectory dataset for the
// pipeline case (mirrors the bench pipeline dataset).
func goldenDataset(n int, seed int64) *core.Dataset {
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	ds := &core.Dataset{
		Truth:            map[string]*trajectory.Trajectory{},
		Region:           region,
		ExpectedInterval: 1,
		MaxSpeed:         10,
		Now:              300,
	}
	for i := 0; i < n; i++ {
		truth := simulate.RandomWalk(fmt.Sprintf("v%d", i), region, 200, 2, 1, seed+int64(i))
		ds.Truth[truth.ID] = truth
		dirty := simulate.AddGaussianNoise(truth, 6, seed+int64(i)+100)
		dirty = simulate.DuplicateSamples(dirty, 0.1, seed+int64(i)+200)
		ds.Trajectories = append(ds.Trajectories, dirty)
	}
	return ds
}

// computeGoldens evaluates every pinned kernel and returns name->hash.
func computeGoldens(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(600, 600)}
	for seed := int64(1); seed <= 4; seed++ {
		noisy := goldenInput(seed)
		key := func(k string) string { return fmt.Sprintf("%s/seed=%d", k, seed) }

		// Speed-gate pass (constraint-based outlier detector).
		out[key("speedgate")] = hashFlags(outlier.SpeedConstraint(noisy.Points, 10, nil))
		// Distance/zscore outlier scan (statistics-based detector).
		out[key("statscan")] = hashFlags(outlier.Statistical(noisy.Points, outlier.StatisticalOptions{}, nil, nil))
		// Simplification.
		out[key("simplify/dp")] = hashTrajectories(t, reduce.DouglasPeuckerSED(noisy, 10))
		out[key("simplify/sw")] = hashTrajectories(t, reduce.SlidingWindow(noisy, 10))
		// Motion refinement kernels (the E1 motion inner loops).
		out[key("refine/kalman")] = hashTrajectories(t, refine.KalmanFilterTrajectory(noisy, 1, 8))
		out[key("refine/rts")] = hashTrajectories(t, refine.KalmanSmoothTrajectory(noisy, 1, 8))
		out[key("refine/particle")] = hashTrajectories(t, refine.ParticleFilterTrajectory(noisy, 400, 1, 8, seed+20))
		out[key("refine/hmm")] = hashTrajectories(t, refine.HMMGridTrajectory(noisy, region.Expand(50), 12, 3, 8))
	}

	// The E1 motion experiment end to end (rendered table, so every
	// filter's RMSE is pinned at full experiment scale).
	for seed := int64(1); seed <= 2; seed++ {
		tb := exp.E1Motion(seed)
		out[fmt.Sprintf("e1motion/seed=%d", seed)] = hashBytes([]byte(tb.Render()))
	}

	// The cleaning pipeline: the stages must stay byte-identical to
	// their first implementations' output. The fixture pins this one
	// output under four keys and is not rewritten, so one run answers
	// all four.
	cleaned, _, _ := core.DefaultRunner().Run(context.Background(), goldenDataset(12, 1), []core.Stage{
		core.DeduplicateStage{},
		core.OutlierRemovalStage{},
		core.SmoothingStage{},
	})
	h := hashTrajectories(t, cleaned.Trajectories...)
	for _, w := range []int{1, 2, 4, 8} {
		out[fmt.Sprintf("pipeline/workers=%d", w)] = h
	}
	return out
}

func TestGoldenColumnar(t *testing.T) {
	got := computeGoldens(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to generate): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("bad golden fixture: %v", err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("golden case %s no longer computed", name)
			continue
		}
		if g != want[name] {
			t.Errorf("golden mismatch for %s: output changed from the pinned baseline", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("new golden case %s not in fixture (run -update-golden)", name)
		}
	}
}
