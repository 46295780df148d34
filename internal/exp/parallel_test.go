package exp

import (
	"runtime"
	"strings"
	"testing"

	"sidq/internal/core"
)

// wallClock names the one table that reports wall-clock measurements
// (E9's ms/speedup columns), which differ even between two serial runs.
const wallClock = "E9"

// TestRunSelectedBitIdenticalAcrossWorkers is the acceptance test for
// the experiment harness: every table but the wall-clock one renders
// byte-identical output in two serial runs and at 1, 4 and NumCPU
// workers — an experiment's own nondeterminism (a map range feeding a
// random draw) fails here as surely as a parallelism bug.
func TestRunSelectedBitIdenticalAcrossWorkers(t *testing.T) {
	serial := RunSelected(42, 1, All())
	if len(serial) != len(All()) {
		t.Fatalf("serial run produced %d tables, want %d", len(serial), len(All()))
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		got := RunSelected(42, w, All())
		if len(got) != len(serial) {
			t.Fatalf("workers=%d produced %d tables, want %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i].ID != serial[i].ID {
				t.Fatalf("workers=%d: table %d is %s, want %s (order broke)", w, i, got[i].ID, serial[i].ID)
			}
			if got[i].ID != wallClock && got[i].Text != serial[i].Text {
				t.Errorf("workers=%d: experiment %s rendered differently than the first serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
					w, got[i].ID, serial[i].Text, w, got[i].Text)
			}
		}
	}
}

// TestRunSelectedFiltersByID pins the id filter the sidqbench -exp
// flag relies on (case ignored, All() order preserved).
func TestRunSelectedFiltersByID(t *testing.T) {
	sel, err := Select([]string{"E12", "e1a"})
	if err != nil {
		t.Fatal(err)
	}
	got := RunSelected(42, 2, sel)
	if len(got) != 2 || got[0].ID != "E1a" || got[1].ID != "E12" {
		ids := make([]string, len(got))
		for i, r := range got {
			ids[i] = r.ID
		}
		t.Fatalf("selected ids = %v, want [E1a E12]", ids)
	}
}

func TestSelect(t *testing.T) {
	for _, tc := range []struct {
		ids  []string
		want string // space-separated ids; "" with err
		err  string
	}{
		{ids: []string{"E13"}, want: "E13"},
		{ids: []string{"e13", " E2 "}, want: "E2 E13"},
		{ids: []string{"E1"}, want: "E1a E1b E1c"},
		{ids: []string{"E1", "E1b"}, want: "E1a E1b E1c"},
		{ids: []string{"E4"}, want: "E4"},
		{ids: []string{"E4b"}, want: "E4b"},
		{ids: []string{"E7", "E9b"}, want: "E7 E9b"},
		{ids: []string{"E13", "E99"}, err: `unknown experiment "E99"`},
		{ids: []string{"E"}, err: `unknown experiment "E"`},
		{ids: []string{""}, err: `unknown experiment ""`},
		{ids: []string{"E1ab"}, err: `unknown experiment "E1AB"`},
		{ids: []string{"F2"}, err: "the ids are E1a, E1b, E1c, E2,"},
		{ids: nil, want: ""},
	} {
		got, err := Select(tc.ids)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) || got != nil {
				t.Errorf("Select(%q) = %v, %v; want an error containing %q and nothing selected", tc.ids, got, err, tc.err)
			}
			continue
		}
		var ids []string
		for _, e := range got {
			ids = append(ids, e.ID)
		}
		if err != nil || strings.Join(ids, " ") != tc.want {
			t.Errorf("Select(%q) = %v, %v; want %s", tc.ids, ids, err, tc.want)
		}
	}
}

// Every Figure-2 cell that claims a measurement names experiments that
// exist.
func TestTaxonomyMeasuredIDsSelect(t *testing.T) {
	for _, e := range core.Taxonomy() {
		if _, err := Select(e.Measured); err != nil {
			t.Errorf("taxonomy cell %q: %v", e.Task, err)
		}
	}
}
