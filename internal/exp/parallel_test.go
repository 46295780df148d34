package exp

import (
	"runtime"
	"testing"
)

// TestRunSelectedBitIdenticalAcrossWorkers is the acceptance test for
// the experiment harness: parallelism must introduce no divergence
// beyond an experiment's own run-to-run nondeterminism. A few tables
// report wall-clock measurements (e.g. E9's ms/speedup columns) that
// differ even between two serial runs; every other experiment must
// render byte-identical output at 1, 4, and NumCPU workers — and E12,
// the experiment that actually runs cleaning pipelines, must be in
// that deterministic set.
func TestRunSelectedBitIdenticalAcrossWorkers(t *testing.T) {
	serial := RunSelected(42, 1, nil)
	serial2 := RunSelected(42, 1, nil)
	if len(serial) != len(All()) {
		t.Fatalf("serial run produced %d tables, want %d", len(serial), len(All()))
	}
	deterministic := map[string]bool{}
	for i := range serial {
		if serial[i].Text == serial2[i].Text {
			deterministic[serial[i].ID] = true
		}
	}
	if !deterministic["E12"] {
		t.Fatal("E12 (pipeline ablation) is not deterministic across serial runs")
	}
	if len(deterministic) < len(serial)-2 {
		t.Fatalf("only %d/%d experiments deterministic serially — expected all but the timing tables",
			len(deterministic), len(serial))
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		got := RunSelected(42, w, nil)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d produced %d tables, want %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i].ID != serial[i].ID {
				t.Fatalf("workers=%d: table %d is %s, want %s (order broke)", w, i, got[i].ID, serial[i].ID)
			}
			if deterministic[got[i].ID] && got[i].Text != serial[i].Text {
				t.Fatalf("workers=%d: experiment %s rendered differently than serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					w, got[i].ID, serial[i].Text, got[i].Text)
			}
		}
	}
}

// TestRunSelectedFiltersByID pins the id filter the sidqbench -exp
// flag relies on (upper-cased match, All() order preserved).
func TestRunSelectedFiltersByID(t *testing.T) {
	got := RunSelected(42, 2, map[string]bool{"E12": true, "E1A": true})
	if len(got) != 2 || got[0].ID != "E1a" || got[1].ID != "E12" {
		ids := make([]string, len(got))
		for i, r := range got {
			ids[i] = r.ID
		}
		t.Fatalf("selected ids = %v, want [E1a E12]", ids)
	}
}
