package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sidq/internal/stream"
	"sidq/internal/trajectory"
)

func TestFeedDeterministic(t *testing.T) {
	render := func(seed int64) []byte {
		f := newFeed(seed, 20, 2)
		var out []byte
		for c := 0; c < 2; c++ {
			s := f.session("x"+string(rune('0'+c)), c, 100*c)
			for _, k := range []int{0, 1, 17, 400} { // 400 is several cycles in
				out = s.appendChunk(out, k)
			}
		}
		for _, b := range f.bodies {
			out = append(out, b.csv...)
		}
		w := f.historyWindow(rand.New(rand.NewSource(seed)), 1000)
		return append(out, historyPath(w)...)
	}
	a, b, c := render(41), render(41), render(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different bytes")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same bytes")
	}
}

// The generator's late count must be exactly what a real
// stream.Reorderer drops, over several wrapped cycles.
func TestLateOracle(t *testing.T) {
	f := newFeed(41, 20, 1)
	s := f.session("o0", 0, 0)
	res := map[string]*stream.Reorderer[trajectory.Point]{}
	for _, id := range s.ids {
		res[id] = stream.NewReorderer[trajectory.Point](streamLateness)
	}
	late := func() int {
		n := 0
		for _, r := range res {
			n += r.LateCount()
		}
		return n
	}
	cycles := 0
	for k := 0; k < 200; k++ {
		for _, e := range s.events(k) {
			res[e.Value.src].Push(stream.Event[trajectory.Point]{Time: e.Time, Value: e.Value.pt})
		}
		if got, want := late(), s.lateCount(k+1); got != want {
			t.Fatalf("after %d chunks the reorderers dropped %d rows, the generator says %d", k+1, got, want)
		}
		cycles = (k + 1) * rowsPerSource / s.trips[0].rows()
	}
	if late() == 0 {
		t.Fatal("no row arrived beyond the lateness bound: disorder is not being injected")
	}
	if cycles < 3 {
		t.Fatalf("only %d cycles covered; the oracle's wrap-around is not tested", cycles)
	}
}

// A row displaced inside the lateness bound must survive, and truth
// must line up with what is sent.
func TestFeedTruthAndCounts(t *testing.T) {
	f := newFeed(41, 20, 1)
	s := f.session("o0", 0, 0)
	var sq float64
	chunks := 50
	for k := 0; k < chunks; k++ {
		for _, e := range s.events(k) {
			j, ok := s.sourceIndex([]byte(e.Value.src))
			if !ok {
				t.Fatalf("source id %q does not parse", e.Value.src)
			}
			sq += e.Value.pt.Pos.DistSq(s.truthAt(j, e.Time))
		}
	}
	if got := s.inputSqErr(chunks); math.Abs(got-sq) > 1e-6*sq {
		t.Fatalf("input squared error %v, summed row by row %v", got, sq)
	}
	// 5 m noise and 2 % outliers at 100-200 m: RMSE well above the noise
	// alone, far below the outlier magnitude.
	if rmse := math.Sqrt(sq / float64(chunks*chunkRows)); rmse < 7 || rmse > 40 {
		t.Fatalf("input rmse %v m is not what the corruption settings give", rmse)
	}
	everywhere := f.graph.Bounds().Expand(1000) // outliers land outside the city
	w := window{rect: everywhere, t0: 0, t1: 1e12}
	if got := s.countInWindow(w, chunks); got != chunks*chunkRows {
		t.Fatalf("the all-covering window holds %d rows, sent %d", got, chunks*chunkRows)
	}
	half := window{rect: everywhere, t0: 0, t1: float64(chunks*rowsPerSource) / 2}
	if got := s.countInWindow(half, chunks); got <= 0 || got >= chunks*chunkRows {
		t.Fatalf("a window over half the time holds %d of %d rows", got, chunks*chunkRows)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0: 1, 0.001: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(v[90:])
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{9, 10, 11, 10, 10, 9, 11, 10, 10, 10}); math.Abs(got-0.05) > 1e-12 { // quartiles 9.75 and 10.25
		t.Errorf("spread = %v, want 0.05", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40}, // overlaps b
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45}, // grandchild: b's, not root's
		{ID: 5, Name: "root2", Start: 200, End: 250},
		{ID: 6, Parent: 5, Name: "long", Start: 190, End: 300}, // longer than its parent
		{ID: 7, Parent: 99, Name: "orphan", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 20, 4: 10, 5: 0, 6: 110, 7: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfByName(spans)["root"]; got != 50 {
		t.Errorf("selfByName root = %d", got)
	}
}

// Replayed children are laid out inside their root, so the self times
// of an op add up to its round trip even when the replay took longer.
func TestTracerLayout(t *testing.T) {
	epoch := time.Now()
	tr := &tracer{epoch: epoch, client: 1}
	root := tr.root(spHandle, epoch.Add(1000), epoch.Add(2000)) // 1000 ns
	cursor := tr.spans[root].Start
	tr.child(root, spFanout, 300, &cursor)
	m := tr.child(root, spMatch, 500, &cursor)
	inner := tr.spans[m].Start
	tr.child(m, spKNearest, 200, &inner)
	tr.child(m, spSnapDists, 900, &inner)  // cut off at the end of match
	tr.child(root, spAppend, 400, &cursor) // only 200 ns of the root are left
	self := selfByName(tr.spans)
	want := map[string]int64{spHandle: 0, spFanout: 300, spMatch: 0, spKNearest: 200, spSnapDists: 300, spAppend: 200}
	var sum int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 1000 {
		t.Errorf("self times add up to %d, the round trip took 1000", sum)
	}
	ids := map[int]bool{}
	for _, s := range tr.spans {
		if ids[s.ID] || s.Op != tr.spans[root].Op {
			t.Errorf("span %+v: duplicate id or wrong op", s)
		}
		ids[s.ID] = true
	}
}

func TestParseRow(t *testing.T) {
	r, err := parseRow([]byte(`{"source":"a0-s3","t":12,"x":-1.5,"y":2e-07,"edge":42}`))
	if err != nil || string(r.source) != "a0-s3" || r.t != 12 || r.x != -1.5 || r.y != 2e-7 || !r.hasEdge || r.edge != 42 {
		t.Fatalf("parsed %+v, %v", r, err)
	}
	if r, err := parseRow([]byte(`{"source":"s","t":1,"x":2,"y":3}`)); err != nil || r.hasEdge {
		t.Fatalf("parsed %+v, %v", r, err)
	}
	for _, bad := range []string{``, `{}`, `{"source":"s","t":1,"x":2}`, `{"source":"s","t":1,"x":2,"y":3,"edge":1.5}`,
		`{"source":"s","t":x,"x":2,"y":3}`, `{"source":"s","t":1,"x":2,"y":3}x`, `{"t":1,"source":"s","x":2,"y":3}`} {
		if _, err := parseRow([]byte(bad)); err == nil {
			t.Errorf("parseRow(%q) accepted", bad)
		}
	}
}

func TestComparePair(t *testing.T) {
	lower := metricDef{"latency_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want pairStatus
	}{
		{"same", lower, tight(10), tight(10), statusOK},
		{"inside the bound", lower, tight(10), tight(10.5), statusOK},
		{"slower", lower, tight(10), tight(12), statusViolation},
		{"faster", lower, tight(10), tight(5), statusOK},
		{"throughput down", higher, tight(1000), tight(800), statusViolation},
		{"throughput up", higher, tight(1000), tight(1300), statusOK},
		{"spread wider than the bound", lower, noisy(10), noisy(10), statusUnresolved},
		{"noisy and worse is still unresolved, not a violation", lower, noisy(10), noisy(12), statusUnresolved},
		{"noisy but every run better", lower, noisy(10), noisy(4), statusOK},
		{"single runs", lower, []float64{10}, []float64{13}, statusViolation},
	} {
		if _, _, got := comparePair(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	mk := func(clients int, p50 float64) resultFile {
		r := resultFile{Env: resultEnv{NProc: 2, Clients: clients, Seed: 41, Seconds: 10}, Workloads: map[string]map[string]*series{}}
		for _, w := range workloadNames {
			r.Workloads[w] = map[string]*series{}
			for _, d := range endToEnd {
				r.Workloads[w][d.name] = &series{Unit: d.unit, Values: []float64{p50}, Median: p50}
			}
		}
		return r
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(2, 1), mk(2, 1)); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	if code := compareResults(&out, mk(2, 1), mk(1, 1)); code != 2 {
		t.Errorf("different client counts: exit %d, want 2", code)
	}
	worse := mk(2, 1)
	worse.Workloads[wCleanBatch]["latency_p50_ms"].Values = []float64{2}
	if code := compareResults(&out, mk(2, 1), worse); code != 1 {
		t.Errorf("a doubled latency: exit %d, want 1", code)
	}
}

// BENCHMARK.json is hand-checked by the driver; keep it in step with the
// tables the program prints from.
func TestContractMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadNames), len(endToEnd), len(perLayer))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}

// The whole benchmark at 1/200 size: four workloads, untraced and
// traced, every check on.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-smoke", "-seconds", "0.3", "-seed", "7", "-trace", "1", "-root", root}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	res, err := readResult(filepath.Join(root, "benchmark", "out", "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			if s := res.Workloads[w][d.name]; s == nil || s.Median <= 0 {
				t.Errorf("%s %s: missing or not positive: %+v", w, d.name, s)
			}
		}
		for _, d := range perLayer {
			if s := res.Workloads[w][d.name]; s == nil || len(s.Values) != 1 {
				t.Errorf("%s %s: missing from the traced pass", w, d.name)
			}
		}
		checkTraceFile(t, filepath.Join(root, "benchmark", "out", "trace_"+w+".json"))
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// checkTraceFile checks the span file's shape, and that for every op the
// self times of its spans add up to the round trip.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
		t.Errorf("%s: %v, %d spans", path, err, len(doc.Spans))
		return
	}
	self := selfTimes(doc.Spans)
	sums, roots := map[int]int64{}, map[int]int64{}
	for _, s := range doc.Spans {
		if s.Name == "" || s.ID == 0 || s.Op == 0 || s.End < s.Start {
			t.Errorf("%s: malformed span %+v", path, s)
			return
		}
		sums[s.Op] += self[s.ID]
		if s.Parent == 0 {
			roots[s.Op] = s.End - s.Start
		}
	}
	for op, d := range roots {
		if sums[op] != d {
			t.Errorf("%s: op %d: self times add up to %d ns, the round trip took %d ns", path, op, sums[op], d)
			return
		}
	}
}
