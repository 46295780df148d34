package trajectory

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sidq/internal/geo"
)

// equalTrajectorySets compares two decode results bit for bit.
func equalTrajectorySets(t *testing.T, got, want []*Trajectory) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d trajectories, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("trajectory %d: id %q want %q", i, got[i].ID, want[i].ID)
		}
		if got[i].Len() != want[i].Len() {
			t.Fatalf("trajectory %q: %d points want %d", want[i].ID, got[i].Len(), want[i].Len())
		}
		for j := range want[i].Points {
			a, b := got[i].Points[j], want[i].Points[j]
			if math.Float64bits(a.T) != math.Float64bits(b.T) ||
				math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
				math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) {
				t.Fatalf("trajectory %q point %d diverged: %+v vs %+v", want[i].ID, j, a, b)
			}
		}
	}
}

// TestReadCSVColumnsMatchesReadCSV pins the columnar decoder against
// the csv.Reader-based one across random inputs: interleaved ids,
// out-of-order timestamps (exercising the stable-sort path), NaN/±Inf
// coordinates, and ids that force csv quoting (exercising the
// fallback).
func TestReadCSVColumnsMatchesReadCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ids := []string{"a", "veh-2", "long-identifier-3", `quo"ted`, "comma,id"}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(200)
		trs := map[string]*Trajectory{}
		var order []string
		for i := 0; i < n; i++ {
			id := ids[rng.Intn(len(ids))]
			if trial%3 != 0 {
				id = ids[rng.Intn(3)] // plain ids: fast path
			}
			tr, ok := trs[id]
			if !ok {
				tr = &Trajectory{ID: id}
				trs[id] = tr
				order = append(order, id)
			}
			tt := float64(i)
			if rng.Intn(5) == 0 {
				tt = rng.Float64() * 100 // out-of-order stamp
			}
			x, y := rng.NormFloat64()*50, rng.NormFloat64()*50
			if rng.Intn(30) == 0 {
				x = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
			tr.Points = append(tr.Points, Point{T: tt, Pos: geo.Pt(x, y)})
		}
		var sb strings.Builder
		all := make([]*Trajectory, 0, len(order))
		for _, id := range order {
			all = append(all, trs[id])
		}
		if err := WriteCSV(&sb, all); err != nil {
			t.Fatal(err)
		}
		csvText := sb.String()
		want, err := ReadCSV(strings.NewReader(csvText))
		if err != nil {
			t.Fatalf("trial %d: ReadCSV: %v", trial, err)
		}
		got, err := ReadCSVColumns(strings.NewReader(csvText))
		if err != nil {
			t.Fatalf("trial %d: ReadCSVColumns: %v", trial, err)
		}
		equalTrajectorySets(t, got, want)
	}
}

// TestReadCSVColumnsLineEndings covers the scanner's framing cases:
// CRLF endings, blank lines, and a missing trailing newline.
func TestReadCSVColumnsLineEndings(t *testing.T) {
	for name, text := range map[string]string{
		"crlf":                "id,t,x,y\r\na,1,2,3\r\na,2,3,4\r\n",
		"blank-lines":         "id,t,x,y\n\na,1,2,3\n\n\na,2,3,4\n",
		"no-trailing-newline": "id,t,x,y\na,1,2,3\na,2,3,4",
		"blank-before-header": "\nid,t,x,y\na,1,2,3\na,2,3,4\n",
	} {
		want, err := ReadCSV(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", name, err)
		}
		got, err := ReadCSVColumns(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: ReadCSVColumns: %v", name, err)
		}
		equalTrajectorySets(t, got, want)
	}
}

// TestReadCSVColumnsErrors mirrors ReadCSV's rejection of malformed
// input: both decoders must fail on the same documents.
func TestReadCSVColumnsErrors(t *testing.T) {
	for name, text := range map[string]string{
		"empty":        "",
		"bad-header":   "nope,t,x,y\na,1,2,3\n",
		"short-row":    "id,t,x,y\na,1,2\n",
		"long-row":     "id,t,x,y\na,1,2,3,4\n",
		"bad-float":    "id,t,x,y\na,zzz,2,3\n",
		"short-header": "id,t\n",
	} {
		if _, err := ReadCSV(strings.NewReader(text)); err == nil {
			t.Fatalf("%s: ReadCSV accepted malformed input", name)
		}
		if _, err := ReadCSVColumns(strings.NewReader(text)); err == nil {
			t.Fatalf("%s: ReadCSVColumns accepted malformed input", name)
		}
	}
}

// TestColumnsBuilderOrder pins the Grouper contract: Trajectories()
// groups in first-appearance order and time-sorts each group, while
// Points(id) preserves as-added order (the stream drain semantics).
func TestColumnsBuilderOrder(t *testing.T) {
	g := NewGrouper()
	g.Add("b", 2, 0, 0)
	g.Add("a", 5, 1, 1)
	g.Add("b", 1, 2, 2)
	g.Add("a", 3, 3, 3)

	raw := g.Points("b")
	if len(raw) != 2 || raw[0].T != 2 || raw[1].T != 1 {
		t.Fatalf("Points(id) reordered samples: %+v", raw)
	}
	if g.Points("missing") != nil {
		t.Fatal("Points of unknown id should be nil")
	}
	if got := g.IDs(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("IDs = %v", got)
	}

	trs := g.Trajectories()
	if len(trs) != 2 || trs[0].ID != "b" || trs[1].ID != "a" {
		t.Fatalf("group order wrong: %v", []string{trs[0].ID, trs[1].ID})
	}
	if trs[0].Points[0].T != 1 || trs[0].Points[1].T != 2 {
		t.Fatalf("group b not time-sorted: %+v", trs[0].Points)
	}
}

// BenchmarkReadCSV compares the csv.Reader decode against ParseCSV's
// scanner on identical input (not gated; documents the load-path win).
// The scanner's row keeps its old name, "columnar", so that its figures
// compare with earlier records.
func BenchmarkReadCSV(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	var trs []*Trajectory
	for k := 0; k < 20; k++ {
		tr := &Trajectory{ID: fmt.Sprintf("veh-%d", k)}
		for i := 0; i < 500; i++ {
			tr.Points = append(tr.Points, Point{
				T:   float64(i),
				Pos: geo.Pt(rng.NormFloat64()*100, rng.NormFloat64()*100),
			})
		}
		trs = append(trs, tr)
	}
	if err := WriteCSV(&sb, trs); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.Run("aos", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSV(strings.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSVColumns(strings.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
