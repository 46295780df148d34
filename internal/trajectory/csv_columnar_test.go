package trajectory

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"sidq/internal/geo"
	"sidq/internal/israce"
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
	var g Grouper
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

// TestGrouperCarvesExactGroups: the groups come out of one allocation
// of exactly the rows added, each capped at its own length, so
// appending to one can never write into its neighbour; ids are the
// grouper's own even when the caller's buffer is rewritten; and a row
// added after the groups were read is a bug that panics, not a row
// that silently goes missing.
func TestGrouperCarvesExactGroups(t *testing.T) {
	buf := []byte("a")
	var g Grouper
	for i := 0; i < 9; i++ {
		buf[0] = "abc"[i%3]
		g.Add(unsafe.String(&buf[0], 1), float64(i), float64(i), 0)
	}
	buf[0] = 'z' // the caller reuses its buffer
	if ids := g.IDs(); strings.Join(ids, "") != "abc" {
		t.Fatalf("IDs = %q after the caller's buffer changed: the grouper must clone", ids)
	}
	a := g.Points("a")
	if len(a) != 3 || cap(a) != 3 || a[0].T != 0 || a[1].T != 3 || a[2].T != 6 {
		t.Fatalf("group a = %+v (cap %d), want stamps 0, 3, 6 at cap 3", a, cap(a))
	}
	b0 := g.Points("b")[0]
	_ = append(a, Point{T: -1}) // must reallocate, not write into b
	if g.Points("b")[0] != b0 {
		t.Fatal("appending to group a wrote into group b")
	}
	if trs := g.Trajectories(); len(trs) != 3 || trs[2].ID != "c" || len(trs[2].Points) != 3 {
		t.Fatalf("Trajectories: %d groups", len(trs))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add after a read did not panic")
			}
		}()
		g.Add("d", 11, 0, 0)
	}()
	if got := new(Grouper).Trajectories(); len(got) != 0 {
		t.Fatalf("an empty grouper gave %d trajectories", len(got))
	}
}

// TestGrouperReleaseLeavesNothingBehind: a reset grouper's slab,
// headers, id map and lists serve the next parse. Bodies of different
// sizes and ids are parsed into one grouper in turn, reset between, so
// a slab is reused by a body shorter than the one it was cut for and
// then replaced for a longer one; every parse must equal a decode that
// reused nothing, with each group capped at its own length, and an id
// must stay valid after its grouper was reset.
func TestGrouperReleaseLeavesNothingBehind(t *testing.T) {
	body := func(ids, rows int, prefix string) []byte {
		var b strings.Builder
		b.WriteString("id,t,x,y\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%s%d,%d,%d.5,%d\n", prefix, i%ids, rows-i, i, -i)
		}
		return []byte(b.String())
	}
	bodies := [][]byte{body(5, 2000, "a-"), body(2, 10, "b-"), body(7, 300, "c-"), body(3, 4000, "d-")}
	want := make([][]*Trajectory, len(bodies))
	for k, b := range bodies {
		var err error
		if want[k], err = ParseCSV(b); err != nil {
			t.Fatal(err)
		}
	}
	var g Grouper
	var kept []string
	for round := 0; round < 3; round++ {
		for k, b := range bodies {
			if err := ParseCSVGroups(&g, b); err != nil {
				t.Fatal(err)
			}
			got := g.Trajectories()
			equalTrajectorySets(t, got, want[k])
			for _, tr := range got {
				if cap(tr.Points) != len(tr.Points) {
					t.Fatalf("round %d body %d: group %q has cap %d for %d points", round, k, tr.ID, cap(tr.Points), len(tr.Points))
				}
			}
			kept = append(kept, got[0].ID)
			g.Reset()
		}
	}
	for i, id := range kept {
		if want := want[i%len(bodies)][0].ID; id != want {
			t.Fatalf("id %d reads %q after its grouper was reset, want %q", i, id, want)
		}
	}
	if err := ParseCSVGroups(&g, []byte("id,t,x,y\na,1,2,3\na,zzz,2,3\n")); err == nil {
		t.Fatal("a malformed body parsed")
	}
	g.Reset()
	if err := ParseCSVGroups(&g, bodies[1]); err != nil {
		t.Fatal(err)
	}
	equalTrajectorySets(t, g.Trajectories(), want[1])
}

// TestGrouperSizesScratchOnce: a fresh grouper told how many rows are
// coming allocates its scratch once, at that size, where one told
// nothing regrows it by doubling; ParseCSVGroups tells it the body's
// line count.
func TestGrouperSizesScratchOnce(t *testing.T) {
	const n = 4000
	fill := func(hint int) func() {
		return func() {
			g := new(Grouper)
			g.Grow(hint)
			for i := 0; i < n; i++ {
				g.Add("a", float64(i), 0, 0)
			}
		}
	}
	told, blind := testing.AllocsPerRun(5, fill(n)), testing.AllocsPerRun(5, fill(0))
	t.Logf("%d rows: %.0f allocations told the count, %.0f told nothing", n, told, blind)
	// Besides the scratch: the grouper, its map, id, id list and counts,
	// none of which grows with n.
	if !israce.Enabled && (told > 9 || blind < told+8) {
		t.Errorf("%d rows: %.0f allocations told the count, %.0f told nothing; want at most 9, the scratch allocated once", n, told, blind)
	}

	var body strings.Builder
	body.WriteString("id,t,x,y\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&body, "a,%d,0,0\n", i)
	}
	var g Grouper
	if err := ParseCSVGroups(&g, []byte(body.String())); err != nil {
		t.Fatal(err)
	}
	g.Trajectories()
	// The carve kept the scratch at the size ParseCSVGroups asked for:
	// its n+1 lines, plus one for a last line without a newline.
	if got := cap(g.rows); got != n+2 {
		t.Errorf("ParseCSVGroups of %d rows left a scratch of cap %d, want %d", n, got, n+2)
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
