package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// updatePins rewrites the seed-99 table pins from the current
// implementation:
//
//	go test ./internal/exp -run TestAllExperimentsRunAndRender -update-pins
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/seed99/<ID>.txt from the current tables")

func cell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("%s: no cell (%d, %d)", tb.ID, row, col)
	}
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q: %v", tb.ID, row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestT1AndF2Render(t *testing.T) {
	tab := T1(42)
	if !strings.Contains(tab, "Noisy and erroneous") {
		t.Fatal("T1 missing rows")
	}
	fig := F2()
	if !strings.Contains(fig, "pre-processing layer") {
		t.Fatal("F2 missing layers")
	}
}

func TestE1aShapes(t *testing.T) {
	tb := E1Radio(1)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Errors grow with noise for multilateration (direct noise scaling).
	if cell(t, tb, 0, 2) >= cell(t, tb, 3, 2) {
		t.Fatal("multilateration error should grow with noise")
	}
	// Fusion never much worse than the better single source.
	for r := range tb.Rows {
		fused := cell(t, tb, r, 3)
		best := cell(t, tb, r, 1)
		if m := cell(t, tb, r, 2); m < best {
			best = m
		}
		if fused > best*1.3+0.5 {
			t.Fatalf("row %d: fused %v much worse than best %v", r, fused, best)
		}
	}
}

func TestE1bShapes(t *testing.T) {
	tb := E1Motion(2)
	for r := range tb.Rows {
		raw := cell(t, tb, r, 1)
		kal := cell(t, tb, r, 2)
		rts := cell(t, tb, r, 3)
		if kal >= raw {
			t.Fatalf("row %d: kalman %v >= raw %v", r, kal, raw)
		}
		if rts > kal {
			t.Fatalf("row %d: smoother %v worse than filter %v", r, rts, kal)
		}
	}
	// Raw error tracks sigma.
	if cell(t, tb, 0, 1) >= cell(t, tb, 3, 1) {
		t.Fatal("raw error should grow with noise")
	}
}

func TestE1cShapes(t *testing.T) {
	tb := E1Collab(3)
	for r := range tb.Rows {
		raw := cell(t, tb, r, 1)
		jd := cell(t, tb, r, 2)
		it := cell(t, tb, r, 3)
		if jd >= raw {
			t.Fatalf("row %d: joint denoise %v >= raw %v", r, jd, raw)
		}
		if it >= raw {
			t.Fatalf("row %d: iterative %v >= raw %v", r, it, raw)
		}
	}
}

func TestE2Shapes(t *testing.T) {
	tb := E2(4)
	for r := range tb.Rows {
		raw := cell(t, tb, r, 1)
		mm := cell(t, tb, r, 5)
		if mm >= raw {
			t.Fatalf("row %d: map-matched %v >= raw %v", r, mm, raw)
		}
		if acc := cell(t, tb, r, 6); acc < 0.3 {
			t.Fatalf("row %d: route accuracy %v", r, acc)
		}
	}
}

func TestE3Shapes(t *testing.T) {
	tb := E3(5)
	// Denser networks interpolate better (first vs last row, per method).
	for col := 1; col <= 3; col++ {
		if cell(t, tb, 3, col) >= cell(t, tb, 0, col) {
			t.Fatalf("col %d: error should shrink with density", col)
		}
	}
	// Fusion stays near the clean source despite the biased second source.
	for r := range tb.Rows {
		if cell(t, tb, r, 4) > 14 { // raw bias of the bad source alone is 15
			t.Fatalf("row %d: fusion failed to suppress bias: %v", r, cell(t, tb, r, 4))
		}
	}
}

func TestE4Shapes(t *testing.T) {
	tb := E4(6)
	// At the lowest rate every trajectory detector should be strong.
	for col := 1; col <= 3; col++ {
		if cell(t, tb, 0, col) < 0.6 {
			t.Fatalf("col %d weak at low rate: %v", col, cell(t, tb, 0, col))
		}
	}
	// STID temporal detector strong across rates.
	for r := range tb.Rows {
		if cell(t, tb, r, 4) < 0.6 {
			t.Fatalf("row %d: temporal F1 %v", r, cell(t, tb, r, 4))
		}
	}
}

func TestE4bShapes(t *testing.T) {
	tb := E4b(20)
	for r := range tb.Rows {
		raw := cell(t, tb, r, 1)
		drop := cell(t, tb, r, 2)
		rep := cell(t, tb, r, 3)
		if drop >= raw || rep >= raw {
			t.Fatalf("row %d: handling did not beat raw (%v %v %v)", r, raw, drop, rep)
		}
		// Repair keeps everything; drop loses the flagged share.
		if cell(t, tb, r, 5) != 1 {
			t.Fatalf("row %d: repair changed length", r)
		}
		if cell(t, tb, r, 4) >= 1 {
			t.Fatalf("row %d: drop kept everything", r)
		}
	}
}

func TestE9bShapes(t *testing.T) {
	tb := E9b(21)
	for r := range tb.Rows {
		grid := cell(t, tb, r, 1)
		hash := cell(t, tb, r, 2)
		// Hash stays near balanced regardless of skew.
		if hash > 1.6 {
			t.Fatalf("row %d: hash imbalance %v", r, hash)
		}
		// Under real skew, grid concentrates load.
		if hot := cell(t, tb, r, 0); hot >= 0.25 && grid < hash {
			t.Fatalf("row %d: grid (%v) should be worse than hash (%v) under skew", r, grid, hash)
		}
	}
	// Imbalance grows with the hot-spot fraction for grid.
	if cell(t, tb, 3, 1) <= cell(t, tb, 0, 1) {
		t.Fatal("grid imbalance should grow with skew")
	}
}

func TestE5Shapes(t *testing.T) {
	tb := E5(7)
	for r := range tb.Rows {
		raw := cell(t, tb, r, 2)
		hmm := cell(t, tb, r, 4)
		if hmm <= raw {
			t.Fatalf("row %d: HMM %v <= raw %v", r, hmm, raw)
		}
		if before, after := cell(t, tb, r, 5), cell(t, tb, r, 6); r > 0 && after >= before {
			t.Fatalf("row %d: timestamp repair %v -> %v", r, before, after)
		}
	}
}

func TestE6Shapes(t *testing.T) {
	tb := E6(8)
	// Low-noise annotation and linking are near perfect.
	if cell(t, tb, 0, 1) < 0.9 || cell(t, tb, 0, 2) < 0.9 {
		t.Fatalf("low-noise integration weak: %v %v", cell(t, tb, 0, 1), cell(t, tb, 0, 2))
	}
	// Dedup removes the injected 30% duplicates exactly.
	for r := range tb.Rows {
		kept := cell(t, tb, r, 3)
		if kept < 0.7 || kept > 0.85 {
			t.Fatalf("row %d: dedup kept %v, want ~10/13", r, kept)
		}
	}
}

func TestE7Shapes(t *testing.T) {
	tb := E7(9)
	prevRatio := 0.0
	for r := range tb.Rows {
		eps := cell(t, tb, r, 0)
		ratio := cell(t, tb, r, 1)
		maxSED := cell(t, tb, r, 2)
		if maxSED > eps+1e-6 {
			t.Fatalf("row %d: DP bound violated: %v > %v", r, maxSED, eps)
		}
		if swSED := cell(t, tb, r, 4); swSED > eps+1e-6 {
			t.Fatalf("row %d: SW bound violated", r)
		}
		if ratio < prevRatio {
			t.Fatalf("row %d: ratio not monotone in eps", r)
		}
		prevRatio = ratio
	}
	tb2 := E7b(9)
	if len(tb2.Rows) != 5 {
		t.Fatalf("E7b rows = %d", len(tb2.Rows))
	}
	// Network-constrained compression dominates everything else.
	if cell(t, tb2, 0, 1) < 10 {
		t.Fatalf("network ratio = %v", cell(t, tb2, 0, 1))
	}
}

func TestE8Shapes(t *testing.T) {
	tb := E8(10)
	// Low uncertainty: near-perfect precision/recall and heavy pruning.
	if cell(t, tb, 0, 1) < 0.9 || cell(t, tb, 0, 2) < 0.9 {
		t.Fatalf("low-σ range quality: %v %v", cell(t, tb, 0, 1), cell(t, tb, 0, 2))
	}
	if cell(t, tb, 0, 3) < 0.5 {
		t.Fatalf("pruned frac = %v", cell(t, tb, 0, 3))
	}
	// Recall (vs truth membership) degrades as uncertainty grows.
	if cell(t, tb, 3, 2) > cell(t, tb, 0, 2) {
		t.Fatal("recall should not improve with uncertainty")
	}
	// Markov mass concentrates inside the prism.
	for r := range tb.Rows {
		if cell(t, tb, r, 5) < 0.9 {
			t.Fatalf("row %d: prism/markov agreement %v", r, cell(t, tb, r, 5))
		}
	}
}

func TestE9Shapes(t *testing.T) {
	tb := E9(11)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Safe-region savings are substantial; late fraction is near the
	// injected 10% (those events exceeded the lateness bound).
	if cell(t, tb, 0, 3) < 0.5 {
		t.Fatalf("savings = %v", cell(t, tb, 0, 3))
	}
	lf := cell(t, tb, 0, 4)
	if lf < 0.02 || lf > 0.2 {
		t.Fatalf("late frac = %v", lf)
	}
}

func TestE10Shapes(t *testing.T) {
	tb := E10(12)
	// Clustering degrades with uncertainty.
	if cell(t, tb, 0, 1) < 0.8 {
		t.Fatalf("low-σ ARI = %v", cell(t, tb, 0, 1))
	}
	if cell(t, tb, 3, 1) > cell(t, tb, 0, 1) {
		t.Fatal("ARI should not improve with uncertainty")
	}
	// Anomaly detection catches teleports at all noise levels.
	for r := range tb.Rows {
		if cell(t, tb, r, 2) < 0.5 {
			t.Fatalf("row %d anomaly F1 = %v", r, cell(t, tb, r, 2))
		}
	}
}

func TestE11Shapes(t *testing.T) {
	tb := E11(13)
	// Markov accuracy decreases as training data is dropped.
	if cell(t, tb, 3, 1) > cell(t, tb, 0, 1) {
		t.Fatal("dropping training data should not improve prediction")
	}
	for r := range tb.Rows {
		// Smoothed traffic inference beats naive scaling.
		if cell(t, tb, r, 3) >= cell(t, tb, r, 2) {
			t.Fatalf("row %d: smoothing did not help: %v vs %v",
				r, cell(t, tb, r, 3), cell(t, tb, r, 2))
		}
	}
	// DQ-aware assignment wins when quality is bad.
	if cell(t, tb, 3, 5) <= 1 {
		t.Fatalf("aware/blind at worst quality = %v", cell(t, tb, 3, 5))
	}
}

func TestE12Shapes(t *testing.T) {
	tb := E12(14)
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	parse := func(name string, col int) float64 {
		v, err := strconv.ParseFloat(byName[name][col], 64)
		if err != nil {
			t.Fatalf("parse %s[%d]: %v", name, col, err)
		}
		return v
	}
	if parse("full plan", 1) <= parse("none (raw)", 1) {
		t.Fatal("full pipeline should beat raw accuracy")
	}
	if parse("full plan", 1) <= parse("- outliers", 1) {
		t.Fatal("removing outlier stage should hurt accuracy")
	}
	if parse("full plan", 3) < parse("none (raw)", 3) {
		t.Fatal("cleaning should not hurt downstream query F1")
	}
	if parse("full plan", 1) < parse("reversed", 1) {
		t.Fatal("planned order should not lose to reversed order")
	}
}

func TestE13Shapes(t *testing.T) {
	tb := E13(15)
	prevOver := 0.0
	for r := range tb.Rows {
		if tb.Rows[r][1] != "true" {
			t.Fatalf("row %d: private query incorrect", r)
		}
		over := cell(t, tb, r, 2)
		if over < 1 {
			t.Fatalf("row %d: over-fetch < 1: %v", r, over)
		}
		if over < prevOver {
			t.Fatalf("row %d: over-fetch should grow with cell size", r)
		}
		prevOver = over
	}
	// Tokens per query shrink as cells grow.
	if cell(t, tb, 3, 3) >= cell(t, tb, 0, 3) {
		t.Fatal("token count should shrink with cell size")
	}
}

func TestE14Shapes(t *testing.T) {
	tb := E14(16)
	for r := range tb.Rows {
		worst := cell(t, tb, r, 1)
		fed := cell(t, tb, r, 3)
		central := cell(t, tb, r, 4)
		if fed >= worst {
			t.Fatalf("row %d: federated %v >= worst local %v", r, fed, worst)
		}
		// Centralized pooling is the bound; federated should be close
		// (same information, averaged rather than pooled).
		if fed > central*2+2 {
			t.Fatalf("row %d: federated %v far above centralized %v", r, fed, central)
		}
	}
}

// TestAllExperimentsRunAndRender runs every table at seed 99 and holds
// each rendering to its pin in testdata/seed99, byte for byte, so a
// refactor under a table cannot move it unnoticed. E9 is not pinned:
// its timing and speedup columns are wall clock.
func TestAllExperimentsRunAndRender(t *testing.T) {
	for _, e := range All() {
		tb := e.Run(99)
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", e.ID)
		}
		out := tb.Render()
		if !strings.Contains(out, tb.ID) {
			t.Fatalf("%s render missing id", e.ID)
		}
		if e.ID == "E9" {
			continue
		}
		pin := filepath.Join("testdata", "seed99", e.ID+".txt")
		if *updatePins {
			if err := os.MkdirAll(filepath.Dir(pin), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pin, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(pin)
		if err != nil {
			t.Fatalf("%s: missing pin (run with -update-pins to generate): %v", e.ID, err)
		}
		if out != string(want) {
			t.Errorf("%s at seed 99 moved from its pin %s:\n%s\nwant:\n%s", e.ID, pin, out, want)
		}
	}
}
