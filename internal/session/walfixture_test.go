package session_test

// On-disk format pins. testdata/wal_v1 was written by the last commit
// whose chunk records were gob (WAL type 2); testdata/wal_v2 by the
// first whose chunk records are the columnar type 6, its other records
// still gob (types 1, 3, 4 and 5); testdata/wal_v3 by the first whose
// every record is an SQC layout (types 6–10). All came out of
// writeWALFixture below, fed the same traffic, so they must answer
// identically — and keep doing so after every later format change:
// a data directory in the field is exactly one of these.
//
// Regenerate a fixture for a NEW format with
//
//	go test ./internal/session -run TestWALFixtureGenerate -wal-fixture-out testdata/wal_vN
//
// and never regenerate an old one: its bytes are the point.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sidq/internal/server"
	"sidq/internal/session"
	"sidq/internal/store"
)

var walFixtureOut = flag.String("wal-fixture-out", "", "write a WAL fixture directory here (TestWALFixtureGenerate)")

const (
	fixtureHistoryQuery = "maxx=200&maxy=60&mint=3&maxt=26.5"
	fixtureOpenSession  = "st-000002" // left open by writeWALFixture
	fixtureChunks       = 8
)

func fixtureConfig(dir string) server.Config {
	return server.Config{
		Logger: server.DiscardLogger(),
		Durability: server.DurabilityConfig{
			Dir: dir, Fsync: store.FsyncAlways, SnapshotEvery: 3, SegmentBytes: 2048,
		},
	}
}

// fixtureChunk is chunk c of one fixture session: four sources (two of
// them needing CSV quoting and JSON escaping), mildly out of order, one
// teleport outlier in every fifth chunk.
func fixtureChunk(c int, dy float64) string {
	var b strings.Builder
	base := float64(c * 4)
	for i := 0; i < 4; i++ {
		tm := base + float64(i)
		b.WriteString(chunkRow("car-a", tm, 10*tm, 5+dy))
		b.WriteString(chunkRow("car-b", tm-0.5, 8*tm, 100+dy))
		fmt.Fprintf(&b, "\"bus \"\"7\"\"\",%g,%g,%g\n", tm+0.25, 3*tm+0.125, 40+dy)
		b.WriteString(chunkRow("tram<1>&co", tm-1.5, 1e-7*tm, -2.5e21+dy))
	}
	if c%5 == 3 {
		b.WriteString(chunkRow("car-a", base+2.25, 90000, 90000))
	}
	return b.String()
}

// writeWALFixture drives a fresh durable service in dir through two
// sessions — st-000001 is drained mid-way and closed, st-000002 is left
// open with rows still in its reorder buffers — across several segment
// rolls and snapshots, and leaves the directory as a kill -9 would.
func writeWALFixture(t *testing.T, dir string) {
	t.Helper()
	svc, err := server.OpenService(fixtureConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	a := openStream(t, srv, "lateness=2&maxspeed=50&lanes=3")
	b := openStream(t, srv, "lateness=2&maxspeed=50&lanes=2")
	if b != fixtureOpenSession {
		t.Fatalf("second session is %s, want %s", b, fixtureOpenSession)
	}
	for c := 0; c < fixtureChunks; c++ {
		if c == 4 {
			if _, resp := drainStream(t, srv, a, ""); resp.StatusCode != http.StatusOK {
				t.Fatalf("mid drain status %d", resp.StatusCode)
			}
		}
		for _, s := range []struct {
			id string
			dy float64
		}{{a, 0}, {b, 50}} {
			if _, resp := ingestChunkSeq(t, srv, s.id, uint64(c+1), fixtureChunk(c, s.dy)); resp.StatusCode != http.StatusOK {
				t.Fatalf("session %s chunk %d status %d", s.id, c, resp.StatusCode)
			}
		}
	}
	closeStream(t, srv, a)
	if segs := walSegments(t, store.OSFS{}, dir); len(segs) < 3 {
		t.Fatalf("fixture has %d segments, want rolls", len(segs))
	}
	if svc.Metrics().Counter("sidq_stream_snapshots_total").Value() < 2 {
		t.Fatal("fixture has no snapshots")
	}
	// No svc.Close(): a graceful close would checkpoint the open session
	// and leave no chunk record for replay to fold. fsync=always has
	// already put every acked record in the files.
}

// fixtureAnswers opens the service over dir and returns what the three
// pinned requests answer, plus the history chunk-count header.
func fixtureAnswers(t *testing.T, dir string) (ndjson, csv, drain, chunks string) {
	t.Helper()
	svc, err := server.OpenService(fixtureConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	ndjson, hdr, code := historyGet(t, srv, fixtureHistoryQuery)
	if code != http.StatusOK {
		t.Fatalf("history ndjson status %d: %s", code, ndjson)
	}
	csv, _, code = historyGet(t, srv, fixtureHistoryQuery+"&format=csv")
	if code != http.StatusOK {
		t.Fatalf("history csv status %d: %s", code, csv)
	}
	drain, resp := drainStream(t, srv, fixtureOpenSession, "flush=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d: %s", resp.StatusCode, drain)
	}
	return ndjson, csv, drain, hdr.Get("X-Sidq-Chunks")
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALFixtureGenerate writes a fixture (data directory plus the
// expected answers) when asked to with -wal-fixture-out.
func TestWALFixtureGenerate(t *testing.T) {
	if *walFixtureOut == "" {
		t.Skip("no -wal-fixture-out")
	}
	out := *walFixtureOut
	writeWALFixture(t, filepath.Join(out, "data"))
	scratch := filepath.Join(t.TempDir(), "data")
	copyDir(t, filepath.Join(out, "data"), scratch)
	ndjson, csv, drain, chunks := fixtureAnswers(t, scratch)
	for name, body := range map[string]string{
		"history.ndjson": ndjson, "history.csv": csv, "drain.ndjson": drain, "chunks.txt": chunks + "\n",
	} {
		if err := os.WriteFile(filepath.Join(out, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ndjsonOfChunk renders a point-CSV chunk the way history returns its
// rows, through the reference encoder.
func ndjsonOfChunk(t *testing.T, chunk string) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, e := range eventsOfChunk(t, chunk) {
		if err := enc.Encode(session.Result{Source: e.Value.Src, T: e.Value.Pt.T, X: e.Value.Pt.Pos.X, Y: e.Value.Pt.Pos.Y}); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// recordTypeCounts replays a copy of the log in dir and counts its
// records by record type.
func recordTypeCounts(t *testing.T, dir string) map[byte]int {
	t.Helper()
	scratch := filepath.Join(t.TempDir(), "data")
	copyDir(t, dir, scratch)
	l, _, err := store.Open(scratch, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	counts := map[byte]int{}
	err = l.Replay(func(r store.Record) error {
		counts[r.Type]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestWALFixtures opens a copy of each committed data directory and
// holds it to the answers recorded when it was written, then keeps
// using it: new records land behind the old ones, whatever format those
// are in, a restart serves both in seq order, and what this build added
// is SQC records only — the gob types are read, never written.
func TestWALFixtures(t *testing.T) {
	for name, legacyChunks := range map[string]int{"wal_v1": 2 * fixtureChunks, "wal_v2": 0, "wal_v3": 0} {
		t.Run(name, func(t *testing.T) {
			fixture := filepath.Join("testdata", name)
			committed := recordTypeCounts(t, filepath.Join(fixture, "data"))
			if name == "wal_v3" {
				for typ, n := range committed {
					if session.LegacyRecord(typ) {
						t.Errorf("the SQC fixture holds %d records of gob type %d", n, typ)
					}
				}
			}
			dir := filepath.Join(t.TempDir(), "data")
			copyDir(t, filepath.Join(fixture, "data"), dir)
			ndjson, csv, drain, chunks := fixtureAnswers(t, dir)
			for file, got := range map[string]string{
				"history.ndjson": ndjson, "history.csv": csv, "drain.ndjson": drain, "chunks.txt": chunks + "\n",
			} {
				want, err := os.ReadFile(filepath.Join(fixture, file))
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s differs from the recorded answer:\nwant:\n%s\ngot:\n%s", file, want, got)
				}
			}

			// Keep using the directory: the open session takes two more
			// chunks, which this build writes as type 6, and a new session
			// opens and closes.
			svc, err := server.OpenService(fixtureConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(svc)
			before, _, code := historyGet(t, srv, "")
			if code != http.StatusOK {
				t.Fatalf("full history status %d", code)
			}
			want := before
			for c := fixtureChunks; c < fixtureChunks+2; c++ {
				chunk := fixtureChunk(c, 50)
				if _, resp := ingestChunkSeq(t, srv, fixtureOpenSession, uint64(c+1), chunk); resp.StatusCode != http.StatusOK {
					t.Fatalf("chunk %d status %d", c, resp.StatusCode)
				}
				want += ndjsonOfChunk(t, chunk)
			}
			closeStream(t, srv, openStream(t, srv, ""))
			srv.Close()
			svc.Close()

			svc, err = server.OpenService(fixtureConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			srv = httptest.NewServer(svc)
			defer srv.Close()
			if got, _, _ := historyGet(t, srv, ""); got != want {
				t.Errorf("history after ingest and restart is not the old rows followed by the new:\nwant:\n%s\ngot:\n%s", want, got)
			}
			counts := recordTypeCounts(t, dir)
			if counts[session.RecChunk] != legacyChunks || counts[session.RecChunk2] != 2*fixtureChunks+2-legacyChunks {
				t.Errorf("chunk records by type: %v, want %d legacy of %d", counts, legacyChunks, 2*fixtureChunks+2)
			}
			// The reopened directory gained a drain (the flush above), a
			// snapshot at each graceful close, an open and a close — each
			// in its SQC type, none in a gob one.
			gained := map[byte]int{}
			for typ, n := range counts {
				if d := n - committed[typ]; d != 0 {
					gained[typ] = d
				}
			}
			for typ, n := range gained {
				if n < 0 || session.LegacyRecord(typ) {
					t.Errorf("the reopened log gained %d records of type %d (all gained: %v)", n, typ, gained)
				}
			}
			for _, typ := range []byte{session.RecSessionOpen2, session.RecDrain2, session.RecSessionClose2, session.RecSnapshot2} {
				if gained[typ] == 0 {
					t.Errorf("the reopened log gained no record of type %d (all gained: %v)", typ, gained)
				}
			}
		})
	}
}
