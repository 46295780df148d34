package session_test

// The history read path as it was before point reads, the columnar
// chunk record and the time-keyed index: an R-tree over chunk boxes
// with a string-keyed side table of time bounds, a ReadRange over the
// whole seq span of the candidates, a gob decode per record, and
// json.Encoder per row. It lives on here as the reference the serving
// path is held to, byte for byte, on logs of both chunk formats.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/geo"
	"sidq/internal/index"
	"sidq/internal/server"
	"sidq/internal/session"
	"sidq/internal/store"
	"sidq/internal/trajectory"
)

type refExtent struct{ minT, maxT float64 }

type refHistoryIndex struct {
	rt  *index.RTree
	ext map[string]refExtent // R-tree entry id (decimal WAL seq) -> time bounds
}

func (h *refHistoryIndex) add(seq uint64, evs []session.WalEvent) {
	if len(evs) == 0 {
		return
	}
	rect := geo.RectFromPoints(geo.Pt(evs[0].X, evs[0].Y))
	ext := refExtent{minT: evs[0].T, maxT: evs[0].T}
	for _, e := range evs[1:] {
		rect = rect.ExtendPoint(geo.Pt(e.X, e.Y))
		ext.minT = math.Min(ext.minT, e.T)
		ext.maxT = math.Max(ext.maxT, e.T)
	}
	id := strconv.FormatUint(seq, 10)
	h.ext[id] = ext
	h.rt.Insert(index.RectEntry{ID: id, Rect: rect})
}

func (h *refHistoryIndex) search(rect geo.Rect, minT, maxT float64) []uint64 {
	var seqs []uint64
	for _, e := range h.rt.Search(rect) {
		ext := h.ext[e.ID]
		if ext.maxT < minT || ext.minT > maxT {
			continue
		}
		seq, err := strconv.ParseUint(e.ID, 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func refEncodeRec(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// window is one range query.
type window struct {
	minX, minY, minT, maxX, maxY, maxT float64
}

func (w window) query(format string) string {
	q := url.Values{}
	for key, v := range map[string]float64{
		"minx": w.minX, "miny": w.minY, "mint": w.minT, "maxx": w.maxX, "maxy": w.maxY, "maxt": w.maxT,
	} {
		if !math.IsInf(v, 0) {
			q.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	q.Set("format", format)
	return q.Encode()
}

// refHistoryRange answers w from a log of gob (type 2) chunk records
// the way the history route used to: candidates from the R-tree, one
// ReadRange across their whole seq span, gob per record, json.Encoder
// (ndjson) or resultTrajectories+WriteCSV (csv) for the rows.
func refHistoryRange(t *testing.T, l *store.Log, idx *refHistoryIndex, w window, format string) ([]uint64, string) {
	t.Helper()
	seqs := idx.search(geo.Rect{Min: geo.Pt(w.minX, w.minY), Max: geo.Pt(w.maxX, w.maxY)}, w.minT, w.maxT)
	inWindow := func(e session.WalEvent) bool {
		return e.X >= w.minX && e.X <= w.maxX && e.Y >= w.minY && e.Y <= w.maxY && e.T >= w.minT && e.T <= w.maxT
	}
	want := map[uint64]bool{}
	for _, seq := range seqs {
		want[seq] = true
	}
	var body bytes.Buffer
	var results []wireRow
	var srcs []string
	srcSeen := map[string]bool{}
	enc := json.NewEncoder(&body)
	if len(seqs) > 0 {
		err := l.ReadRange(seqs[0], seqs[len(seqs)-1], func(rec store.Record) error {
			if rec.Type != session.RecChunk || !want[rec.Seq] {
				return nil
			}
			var c session.WalChunk
			if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(&c); err != nil {
				return err
			}
			for _, e := range c.Events {
				if !inWindow(e) {
					continue
				}
				res := wireRow{Source: e.Src, T: e.T, X: e.X, Y: e.Y}
				if format == "ndjson" {
					if err := enc.Encode(res); err != nil {
						return err
					}
					continue
				}
				results = append(results, res)
				if !srcSeen[e.Src] {
					srcSeen[e.Src] = true
					srcs = append(srcs, e.Src)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("reference read: %v", err)
		}
	}
	if format == "csv" {
		if err := trajectory.WriteCSV(&body, resultTrajectories(results, srcs)); err != nil {
			t.Fatal(err)
		}
	}
	return seqs, body.String()
}

// resultTrajectories groups results into per-source trajectories in the
// order of srcs, emitted order within a source; with WriteCSV it is the
// reference the CSV responses are checked against.
func resultTrajectories(results []wireRow, srcs []string) []*trajectory.Trajectory {
	g := new(trajectory.Grouper)
	for _, res := range results {
		g.Add(res.Source, res.T, res.X, res.Y)
	}
	var out []*trajectory.Trajectory
	for _, src := range srcs {
		if pts := g.Points(src); pts != nil {
			out = append(out, &trajectory.Trajectory{ID: src, Points: pts})
		}
	}
	return out
}

// hostileFloats are the values at which encoding/json changes float
// format or strconv its digit count, plus the ones a careless encoder
// gets wrong.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 100, 1e6, 123456789, 4503599627370497.5,
	1e20, 999999999999999868928, 1e21, 1e21 + 1e6, -1e21, 1.7976931348623157e308,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-9, 5e-324, 2.2250738585072014e-308, 0.1, 0.30000000000000004,
}

var hostileSources = []string{
	"car-1", "car-2", "bus 7", `quo"te\back`, "<html>&amp;", "line sep ",
	"bad\xff\xfeutf8", "tab\tnl\n\x00\x1f", "dé–já", "comma,and\"quote",
}

// referenceFeed is a seeded chunk sequence. Plain feeds move forward in
// time a few seconds a chunk — the shape the time-keyed index prunes;
// hostile feeds mix in the values above, which also blow the index's
// span bound out so that it prunes nothing and must still agree.
func referenceFeed(rng *rand.Rand, chunks int, hostile bool) [][]session.WalEvent {
	feed := make([][]session.WalEvent, chunks)
	for c := range feed {
		base := float64(c) * 3
		for r, rows := 0, 1+rng.Intn(40); r < rows; r++ {
			src := hostileSources[rng.Intn(2)]
			t, x, y := base+rng.Float64()*8, rng.Float64()*1000, rng.Float64()*1000
			if hostile {
				src = hostileSources[rng.Intn(len(hostileSources))]
				for _, f := range []*float64{&t, &x, &y} {
					// Nothing past 1e100: the reference's R-tree squares box
					// widths when it splits a node, and one row near
					// MaxFloat64 overflows that into a panic. And no -0: gob
					// drops a zero-valued field, so the reference's log holds
					// +0 where the columnar log keeps the sign
					// (TestNegativeZeroSurvivesRestart).
					v := hostileFloats[rng.Intn(len(hostileFloats))]
					if rng.Intn(4) == 0 && math.Abs(v) < 1e100 && !(v == 0 && math.Signbit(v)) {
						*f = v
					}
				}
			}
			feed[c] = append(feed[c], session.WalEvent{Src: src, T: t, X: x, Y: y})
		}
	}
	return feed
}

// TestHistoryMatchesReference serves seeded feeds three ways — the
// reference over a gob log, the engine over that same gob log (legacy
// records transcoded on read), the engine over the columnar log its own
// ingest of the same feed writes — and demands the same candidate seqs
// from the engines, and then, from services reopened over both logs,
// the same ndjson and csv bytes, for full, random, boundary-exact and
// empty windows.
func TestHistoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		hostile := seed%2 == 0
		rng := rand.New(rand.NewSource(seed))
		feed := referenceFeed(rng, 60, hostile)

		// The gob log: open at seq 1, chunk c at seq c+2, and the
		// reference index over it.
		legacyFS, liveFS := faults.NewCrashFS(), faults.NewCrashFS()
		ll, _, err := store.Open("wal", store.Options{FS: legacyFS, Fsync: store.FsyncOff, SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ll.Append(session.RecSessionOpen, refEncodeRec(t, session.WalOpen{Session: "st-000001", Lateness: 0, MaxSpeed: 0, Lanes: 2})); err != nil {
			t.Fatal(err)
		}
		ref := &refHistoryIndex{rt: index.NewRTree(), ext: map[string]refExtent{}}
		for c, events := range feed {
			wc := session.WalChunk{Session: "st-000001", ChunkIdx: uint64(c + 1), Events: events}
			seq, err := ll.Append(session.RecChunk, refEncodeRec(t, wc))
			if err != nil {
				t.Fatal(err)
			}
			ref.add(seq, wc.Events)
		}

		windows := []window{{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1), math.Inf(1)}}
		pick := func() session.WalEvent { c := feed[rng.Intn(len(feed))]; return c[rng.Intn(len(c))] }
		for i := 0; i < 40; i++ {
			a, b := pick(), pick()
			w := window{
				math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.T, b.T),
				math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.T, b.T),
			}
			switch i % 4 {
			case 1: // time only
				w.minX, w.minY, w.maxX, w.maxY = math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)
			case 2: // space only
				w.minT, w.maxT = math.Inf(-1), math.Inf(1)
			case 3: // a single instant, exactly on a row
				w.maxT = w.minT
				w.minX, w.minY, w.maxX, w.maxY = math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)
			}
			windows = append(windows, w)
		}
		windows = append(windows, window{-5, -5, -1e9, -4, -4, -1e8}) // nothing there

		// The reference answers, through the gob log's own handle.
		type answer struct {
			seqs []uint64
			body string
		}
		want := map[string][]answer{}
		for _, format := range []string{"ndjson", "csv"} {
			for _, w := range windows {
				seqs, body := refHistoryRange(t, ll, ref, w, format)
				want[format] = append(want[format], answer{seqs, body})
			}
		}
		if err := ll.Close(); err != nil {
			t.Fatal(err)
		}

		// The engines: one recovers the gob log, one ingests the feed.
		durable := func(fs store.FS) server.DurabilityConfig {
			return server.DurabilityConfig{Dir: "wal", Fsync: store.FsyncOff, SnapshotEvery: 1 << 30, SegmentBytes: 4096, FS: fs}
		}
		engines := map[string]*session.Engine{}
		for name, fs := range map[string]store.FS{"gob log": legacyFS, "columnar log": liveFS} {
			if engines[name], err = session.Open(session.Config{Durability: durable(fs)}); err != nil {
				t.Fatal(err)
			}
		}
		id, err := engines["columnar log"].OpenSession(0, 0, 2, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		for c, events := range feed {
			if _, err := engines["columnar log"].Ingest(id, chunkOf(events), 0, time.Now()); err != nil {
				t.Fatalf("seed %d: ingest chunk %d: %v", seed, c, err)
			}
		}
		for name, eng := range engines {
			for wi, w := range windows {
				h := eng.History(geo.Rect{Min: geo.Pt(w.minX, w.minY), Max: geo.Pt(w.maxX, w.maxY)}, w.minT, w.maxT)
				if got := h.Seqs(); !slices.Equal(got, want["ndjson"][wi].seqs) {
					t.Fatalf("seed %d window %d %+v over the %s: candidates %v, reference %v", seed, wi, w, name, got, want["ndjson"][wi].seqs)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}

		// The services, reopened over the two logs.
		for name, fs := range map[string]store.FS{"gob log": legacyFS, "columnar log": liveFS} {
			svc, err := server.OpenService(server.Config{Logger: server.DiscardLogger(), Durability: durable(fs)})
			if err != nil {
				t.Fatal(err)
			}
			for wi, w := range windows {
				for _, format := range []string{"ndjson", "csv"} {
					what := fmt.Sprintf("seed %d window %d %+v %s over the %s", seed, wi, w, format, name)
					wantSeqs, wantBody := want[format][wi].seqs, want[format][wi].body
					rr := httptest.NewRecorder()
					svc.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/history/range?"+w.query(format), nil))
					if rr.Code != http.StatusOK {
						t.Fatalf("%s: status %d: %s", what, rr.Code, rr.Body)
					}
					if got := rr.Header().Get("X-Sidq-Chunks"); got != strconv.Itoa(len(wantSeqs)) {
						t.Fatalf("%s: X-Sidq-Chunks %s, reference %d", what, got, len(wantSeqs))
					}
					if got := rr.Body.String(); got != wantBody {
						t.Fatalf("%s: body differs from the reference:\nwant:\n%s\ngot:\n%s", what, wantBody, got)
					}
				}
			}
			svc.Close()
		}
	}
}
