package session_test

// Helpers of the tests that drive the engine the way a client does:
// through server.OpenService and its routes, over a filesystem the test
// owns. What they need of the log itself they read through that
// filesystem, on a handle of their own.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"sidq/internal/faults"
	"sidq/internal/geo"
	"sidq/internal/server"
	"sidq/internal/session"
	"sidq/internal/store"
	"sidq/internal/trajectory"
)

// newDurableService opens a service over the given (usually CrashFS)
// filesystem.
func newDurableService(t *testing.T, fs store.FS, fsync store.FsyncMode, snapEvery int) *server.Service {
	t.Helper()
	svc, err := server.OpenService(server.Config{
		Logger: server.DiscardLogger(),
		Durability: server.DurabilityConfig{
			Dir: "wal", Fsync: fsync, SnapshotEvery: snapEvery, FS: fs,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// newMemService is the memory-only control the durable runs are held to.
func newMemService() *server.Service {
	return server.NewService(server.Config{Logger: server.DiscardLogger()})
}

// openStream opens a session against srv and returns its id.
func openStream(t *testing.T, srv *httptest.Server, params string) string {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/stream/open?"+params, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("open status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Session
}

func ingestChunk(t *testing.T, srv *httptest.Server, id, csvChunk string) (session.Ack, *http.Response) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/stream/ingest?session="+id, "text/csv", strings.NewReader(csvChunk))
	if err != nil {
		t.Fatal(err)
	}
	var ack session.Ack
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return ack, resp
}

// ingestChunkSeq is ingestChunk with a client retry sequence number.
func ingestChunkSeq(t *testing.T, srv *httptest.Server, id string, seq uint64, csvChunk string) (session.Ack, *http.Response) {
	t.Helper()
	return ingestChunk(t, srv, fmt.Sprintf("%s&seq=%d", id, seq), csvChunk)
}

func drainStream(t *testing.T, srv *httptest.Server, id, params string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/stream/" + id + "/results?" + params)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body), resp
}

func closeStream(t *testing.T, srv *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/stream/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("close failed: %v %v", err, resp)
	}
	resp.Body.Close()
}

func historyGet(t *testing.T, srv *httptest.Server, params string) (string, http.Header, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/history/range?" + params)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body), resp.Header, resp.StatusCode
}

// chunkRow builds one "id,t,x,y" row.
func chunkRow(src string, tm, x, y float64) string {
	return fmt.Sprintf("%s,%g,%g,%g\n", src, tm, x, y)
}

// walSegment is one segment file of a log, as the filesystem shows it.
type walSegment struct {
	Name  string
	Bytes int64
}

// walSegments lists the segment files under dir, oldest first.
func walSegments(t *testing.T, fs store.FS, dir string) []walSegment {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var segs []walSegment
	for _, name := range names {
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		f, err := fs.Open(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, walSegment{name, size})
	}
	return segs
}

// walBytes is what the log under dir holds on disk.
func walBytes(t *testing.T, fs store.FS, dir string) (b int64) {
	for _, seg := range walSegments(t, fs, dir) {
		b += seg.Bytes
	}
	return b
}

// walRecords replays the log a running fsync=always service keeps
// under dir — through a second handle on a crash image of fs, which
// holds every acked record and leaves the service's own log alone.
func walRecords(t *testing.T, fs *faults.CrashFS, dir string, fn func(store.Record)) {
	t.Helper()
	l, _, err := store.Open(dir, store.Options{FS: fs.Crash(0, false)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Replay(func(r store.Record) error { fn(r); return nil }); err != nil {
		t.Fatal(err)
	}
}

// gridChunk is chunk c of a steady feed: rows per source for each of
// sources vehicles, one second apart, slow enough for the speed gate.
func gridChunk(prefix string, c, sources, rows int) string {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		tm := float64(c*rows + i)
		for s := 0; s < sources; s++ {
			fmt.Fprintf(&b, "%s%02d,%g,%g,%d\n", prefix, s, tm, 2*tm, 10*s)
		}
	}
	return b.String()
}

// eventsOfChunk decodes a point-CSV chunk into the events the ingest
// route hands the engine for it.
func eventsOfChunk(t *testing.T, chunk string) []session.Event {
	t.Helper()
	var events []session.Event
	err := trajectory.ScanCSV([]byte(chunk), false, func(id string, tm, x, y float64) error {
		events = append(events, session.Event{Time: tm, Value: session.Sample{
			Src: strings.Clone(id), Pt: trajectory.Point{T: tm, Pos: geo.Pt(x, y)},
		}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}
