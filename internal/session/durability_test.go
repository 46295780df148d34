package session_test

// Durability wiring tests: persist-before-ack, fsync-error ack
// failure, ?seq= retry dedup, snapshot/restore recovery, history
// range queries. The chaos-style kill -9 byte-identity scenarios live
// in internal/chaos. They drive the engine through the service's routes:
// what is held here is what a client sees.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/roadnet"
	"sidq/internal/server"
	"sidq/internal/store"
)

// testChunks is a deterministic multi-source, mildly out-of-order
// chunk sequence exercising reordering and the speed gate.
func testChunks(n int) []string {
	chunks := make([]string, n)
	for c := 0; c < n; c++ {
		var b strings.Builder
		base := float64(c * 4)
		// Two sources; the second arrives one step behind (reordering
		// within lateness), plus one teleport outlier per 5th chunk.
		for i := 0; i < 4; i++ {
			tm := base + float64(i)
			b.WriteString(chunkRow("car-a", tm, 10*tm, 5))
			b.WriteString(chunkRow("car-b", tm-0.5, 8*tm, 100))
		}
		if c%5 == 3 {
			b.WriteString(chunkRow("car-a", base+2.25, 90000, 90000))
		}
		chunks[c] = b.String()
	}
	return chunks
}

// runSession opens a session, feeds chunks (with client seqs 1..n),
// draining mid-way at drainAt (when >= 0), and returns the mid-drain
// and final flush bodies.
func runSession(t *testing.T, srv *httptest.Server, chunks []string, drainAt int) (mid, final string) {
	t.Helper()
	id := openStream(t, srv, "lateness=2&maxspeed=50&lanes=3")
	for i, c := range chunks {
		if i == drainAt {
			body, resp := drainStream(t, srv, id, "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mid drain status %d", resp.StatusCode)
			}
			mid = body
		}
		if _, resp := ingestChunkSeq(t, srv, id, uint64(i+1), c); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d status %d", i, resp.StatusCode)
		}
	}
	body, resp := drainStream(t, srv, id, "flush=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final drain status %d", resp.StatusCode)
	}
	return mid, body
}

// TestDurableRestartResumesExactly: every chunk is acked under
// fsync=always, the process "dies" (crash image), and the restarted
// server's drain must be byte-identical to an uninterrupted run's.
func TestDurableRestartResumesExactly(t *testing.T) {
	chunks := testChunks(12)

	// Control: uninterrupted, memory-only.
	ctrl := newMemService()
	ctrlSrv := httptest.NewServer(ctrl)
	_, want := runSession(t, ctrlSrv, chunks, -1)
	ctrlSrv.Close()

	// Durable run: ingest everything, then crash without any shutdown.
	fs := faults.NewCrashFS()
	svc := newDurableService(t, fs, store.FsyncAlways, 4)
	srv := httptest.NewServer(svc)
	id := openStream(t, srv, "lateness=2&maxspeed=50&lanes=3")
	for i, c := range chunks {
		if _, resp := ingestChunkSeq(t, srv, id, uint64(i+1), c); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d status %d", i, resp.StatusCode)
		}
	}
	srv.Close() // kill -9: no drain, no session close, no WAL close

	for seed := int64(0); seed < 5; seed++ {
		img := fs.Crash(seed, true)
		svc2 := newDurableService(t, img, store.FsyncAlways, 4)
		srv2 := httptest.NewServer(svc2)
		got, resp := drainStream(t, srv2, id, "flush=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: drain status %d", seed, resp.StatusCode)
		}
		if got != want {
			t.Fatalf("seed %d: recovered drain differs from uninterrupted run:\nwant %d bytes\ngot  %d bytes\nwant:\n%s\ngot:\n%s",
				seed, len(want), len(got), want, got)
		}
		srv2.Close()
		svc2.Close()
	}
}

// TestDurableMidDrainRecovery: rows drained before the crash must not
// be delivered again after recovery — drain records replay and
// discard. The post-crash flush drain must equal the uninterrupted
// run's post-mid-drain output.
func TestDurableMidDrainRecovery(t *testing.T) {
	chunks := testChunks(10)
	const drainAt = 6

	ctrl := newMemService()
	ctrlSrv := httptest.NewServer(ctrl)
	ctrlMid, want := runSession(t, ctrlSrv, chunks, drainAt)
	ctrlSrv.Close()

	fs := faults.NewCrashFS()
	svc := newDurableService(t, fs, store.FsyncAlways, 100 /* no snapshots: force chunk+drain replay */)
	srv := httptest.NewServer(svc)
	id := openStream(t, srv, "lateness=2&maxspeed=50&lanes=3")
	var mid string
	for i, c := range chunks {
		if i == drainAt {
			mid, _ = drainStream(t, srv, id, "")
		}
		if _, resp := ingestChunkSeq(t, srv, id, uint64(i+1), c); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d status %d", i, resp.StatusCode)
		}
	}
	if mid != ctrlMid {
		t.Fatalf("mid-drain differs before any crash:\n%q\n%q", ctrlMid, mid)
	}
	srv.Close()

	img := fs.Crash(1, true)
	svc2 := newDurableService(t, img, store.FsyncAlways, 100)
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	got, resp := drainStream(t, srv2, id, "flush=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	if got != want {
		t.Fatalf("post-recovery drain re-delivered or lost rows:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestDurableFsyncErrorFailsAck: when the disk refuses the fsync, the
// ack must be a 503 and the chunk must NOT be applied — the client
// was told the data is not durable, so it must not surface later.
func TestDurableFsyncErrorFailsAck(t *testing.T) {
	fs := faults.NewCrashFS()
	svc := newDurableService(t, fs, store.FsyncAlways, 16)
	srv := httptest.NewServer(svc)
	id := openStream(t, srv, "lateness=0&lanes=1")
	if _, resp := ingestChunkSeq(t, srv, id, 1, chunkRow("a", 1, 1, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-fault chunk status %d", resp.StatusCode)
	}
	fs.FailFsyncAfter(0)
	_, resp := ingestChunkSeq(t, srv, id, 2, chunkRow("a", 2, 2, 2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fsync-failed ingest status %d, want 503", resp.StatusCode)
	}
	if !fs.Failed() {
		t.Fatal("injected fsync never fired")
	}
	// The log is poisoned: subsequent ingests keep failing loudly.
	_, resp = ingestChunkSeq(t, srv, id, 3, chunkRow("a", 3, 3, 3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-poison ingest status %d, want 503", resp.StatusCode)
	}
	srv.Close()

	// Recovery from the crash image: only the acked chunk survives.
	img := fs.Crash(0, false)
	svc2 := newDurableService(t, img, store.FsyncAlways, 16)
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	got, _ := drainStream(t, srv2, id, "flush=1")
	if !strings.Contains(got, `"t":1`) {
		t.Fatalf("acked chunk lost after recovery: %q", got)
	}
	if strings.Contains(got, `"t":2`) || strings.Contains(got, `"t":3`) {
		t.Fatalf("nacked chunk surfaced after recovery: %q", got)
	}
}

// TestDurableClientSeqDedup: re-sending an already-acked chunk with
// the same ?seq= must ack as a duplicate without double-applying —
// the client retry protocol after a lost response.
func TestDurableClientSeqDedup(t *testing.T) {
	fs := faults.NewCrashFS()
	svc := newDurableService(t, fs, store.FsyncAlways, 16)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	id := openStream(t, srv, "lateness=0&lanes=1")
	row := chunkRow("a", 1, 1, 1)
	ack1, _ := ingestChunkSeq(t, srv, id, 1, row)
	if ack1.Duplicate || ack1.Ingested != 1 {
		t.Fatalf("first send: %+v", ack1)
	}
	ack2, resp := ingestChunkSeq(t, srv, id, 1, row)
	if resp.StatusCode != http.StatusOK || !ack2.Duplicate || ack2.Ingested != 0 {
		t.Fatalf("retry: status %d ack %+v", resp.StatusCode, ack2)
	}
	got, _ := drainStream(t, srv, id, "flush=1")
	if n := strings.Count(got, `"t":1`); n != 1 {
		t.Fatalf("row applied %d times, want 1:\n%s", n, got)
	}
}

// TestDurableGracefulCloseSnapshots: Close checkpoints live sessions,
// and a reopen resumes them from snapshots alone.
func TestDurableGracefulCloseSnapshots(t *testing.T) {
	chunks := testChunks(6)

	ctrl := newMemService()
	ctrlSrv := httptest.NewServer(ctrl)
	_, want := runSession(t, ctrlSrv, chunks, -1)
	ctrlSrv.Close()

	fs := faults.NewCrashFS()
	svc := newDurableService(t, fs, store.FsyncBatch, 1000)
	srv := httptest.NewServer(svc)
	id := openStream(t, srv, "lateness=2&maxspeed=50&lanes=3")
	for i, c := range chunks {
		if _, resp := ingestChunkSeq(t, srv, id, uint64(i+1), c); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d status %d", i, resp.StatusCode)
		}
	}
	srv.Close()
	svc.Close() // graceful: final snapshot + WAL close

	svc2 := newDurableService(t, fs, store.FsyncBatch, 1000)
	if v := svc2.Metrics().Counter("sidq_stream_snapshot_restores_total").Value(); v < 1 {
		t.Fatalf("expected a snapshot restore, counter %v", v)
	}
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	got, _ := drainStream(t, srv2, id, "flush=1")
	if got != want {
		t.Fatalf("post-restart drain differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestHistoryRange: persisted chunks are queryable by spatio-temporal
// range, including after a restart, and closed sessions stay visible.
func TestHistoryRange(t *testing.T) {
	fs := faults.NewCrashFS()
	svc := newDurableService(t, fs, store.FsyncAlways, 16)
	srv := httptest.NewServer(svc)
	id := openStream(t, srv, "lateness=0&lanes=1")
	// Points on a line: (i*10, 0) at t=i.
	for i := 1; i <= 9; i++ {
		if _, resp := ingestChunkSeq(t, srv, id, uint64(i), chunkRow("probe", float64(i), float64(i*10), 0)); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d status %d", i, resp.StatusCode)
		}
	}
	// Close the session: history must survive it.
	closeStream(t, srv, id)

	query := func(s *httptest.Server, params string) (string, *http.Response) {
		resp, err := http.Get(s.URL + "/v1/history/range?" + params)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body), resp
	}
	got, resp := query(srv, "minx=25&maxx=65")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history status %d: %s", resp.StatusCode, got)
	}
	for _, x := range []string{`"x":30`, `"x":40`, `"x":50`, `"x":60`} {
		if !strings.Contains(got, x) {
			t.Fatalf("missing %s in:\n%s", x, got)
		}
	}
	if strings.Contains(got, `"x":20`) || strings.Contains(got, `"x":70`) {
		t.Fatalf("out-of-range point returned:\n%s", got)
	}
	// Temporal filter cuts the same line by t.
	got, _ = query(srv, "mint=7")
	if strings.Contains(got, `"t":6`) || !strings.Contains(got, `"t":8`) {
		t.Fatalf("temporal filter wrong:\n%s", got)
	}
	srv.Close()

	// Restart from a crash image: the index rebuilds from the WAL.
	img := fs.Crash(0, false)
	svc2 := newDurableService(t, img, store.FsyncAlways, 16)
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	got2, resp2 := query(srv2, "minx=25&maxx=65")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("history status %d after restart", resp2.StatusCode)
	}
	for _, x := range []string{`"x":30`, `"x":40`, `"x":50`, `"x":60`} {
		if !strings.Contains(got2, x) {
			t.Fatalf("missing %s after restart:\n%s", x, got2)
		}
	}
}

// TestNegativeZeroSurvivesRestart: coordinates cross the WAL bit for
// bit. The gob chunk record dropped zero-valued fields, so a row
// ingested at x=-0 replayed (and was served by history) as x=0 — a
// restarted session's drain differed from an uninterrupted one's by a
// sign.
func TestNegativeZeroSurvivesRestart(t *testing.T) {
	fs := faults.NewCrashFS()
	svc := newDurableService(t, fs, store.FsyncAlways, 16)
	srv := httptest.NewServer(svc)
	id := openStream(t, srv, "lateness=5&lanes=1")
	if _, resp := ingestChunk(t, srv, id, "probe,1,-0,5\nprobe,2,0,-0\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	srv.Close() // kill -9

	svc2 := newDurableService(t, fs.Crash(0, false), store.FsyncAlways, 16)
	defer svc2.Close()
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	want := `{"source":"probe","t":1,"x":-0,"y":5}` + "\n" + `{"source":"probe","t":2,"x":0,"y":-0}` + "\n"
	if got, _, _ := historyGet(t, srv2, ""); got != want {
		t.Errorf("history after restart:\n%swant:\n%s", got, want)
	}
	if got, _ := drainStream(t, srv2, id, "flush=1"); got != want {
		t.Errorf("drain after restart:\n%swant:\n%s", got, want)
	}
}

// TestSnapshotRestoreIsBitExact: a session restored from a snapshot
// record drains what the uninterrupted session drains, byte for byte.
// TestNegativeZeroSurvivesRestart covers chunk replay; here a snapshot
// follows every chunk, so the crashed session comes back from its
// snapshot alone. The gob snapshot omitted zero values: a -0 came back
// +0, in a released row and in a reorder buffer alike, and a matched
// row on edge 0 came back with no edge.
func TestSnapshotRestoreIsBitExact(t *testing.T) {
	// A vehicle driving east along the city's edge 0, the street from
	// (0, 0) to (100, 0), a few meters either side of it.
	var east strings.Builder
	for i := 0; i < 12; i++ {
		east.WriteString(chunkRow("veh", float64(i), float64(4+8*i), float64(3-6*(i%2))))
	}
	city := roadnet.GridCity(roadnet.GridCityOptions{NX: 3, NY: 3, Spacing: 100, Seed: 1})
	for _, c := range []struct {
		name, open, chunk string
		network           *roadnet.Graph
		bites             string // in the control's drain, or the case tests nothing
	}{
		// probe's t=10 row stays buffered, other's t=3 row too (each
		// source has its own watermark); probe's t=1 and t=2 rows are
		// released and left undrained.
		{"raw", "lateness=5&lanes=2", "probe,1,-0,5\nprobe,2,0,-0\nother,3,-0,-0\nprobe,10,-0,-0\n", nil, `"x":-0,"y":-0`},
		{"matched", "lateness=1&maxspeed=0&lanes=2", east.String(), city, `"edge":0}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := func(fs store.FS) server.Config {
				cfg := server.Config{Logger: server.DiscardLogger(), Stream: server.StreamConfig{Network: c.network}}
				if fs != nil {
					cfg.Durability = server.DurabilityConfig{Dir: "wal", Fsync: store.FsyncAlways, SnapshotEvery: 1, FS: fs}
				}
				return cfg
			}
			ctrl := httptest.NewServer(server.NewService(cfg(nil)))
			id := openStream(t, ctrl, c.open)
			if _, resp := ingestChunkSeq(t, ctrl, id, 1, c.chunk); resp.StatusCode != http.StatusOK {
				t.Fatalf("control ingest status %d", resp.StatusCode)
			}
			want, _ := drainStream(t, ctrl, id, "flush=1")
			ctrl.Close()
			if !strings.Contains(want, c.bites) {
				t.Fatalf("the uninterrupted drain has no %s:\n%s", c.bites, want)
			}

			fs := faults.NewCrashFS()
			svc, err := server.OpenService(cfg(fs))
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(svc)
			if id2 := openStream(t, srv, c.open); id2 != id {
				t.Fatalf("durable session is %s, the control's %s", id2, id)
			}
			if _, resp := ingestChunkSeq(t, srv, id, 1, c.chunk); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status %d", resp.StatusCode)
			}
			srv.Close() // kill -9: no drain, no close

			svc2, err := server.OpenService(cfg(fs.Crash(0, false)))
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			if n := svc2.Metrics().Counter("sidq_stream_snapshot_restores_total").Value(); n != 1 {
				t.Fatalf("%d sessions restored from a snapshot, want 1", n)
			}
			srv2 := httptest.NewServer(svc2)
			defer srv2.Close()
			if got, _ := drainStream(t, srv2, id, "flush=1"); got != want {
				t.Errorf("drain after a restore from the snapshot:\n%swant (uninterrupted):\n%s", got, want)
			}
		})
	}
}

// TestHistoryCorruptChunkIs500: point reads verify every frame they
// serve. A candidate chunk whose bytes rotted in a segment the manifest
// still lists is a 500 naming the segment — never a 200 with the rows
// quietly missing.
func TestHistoryCorruptChunkIs500(t *testing.T) {
	fs := faults.NewCrashFS()
	svc, err := server.OpenService(server.Config{Logger: server.DiscardLogger(), Durability: server.DurabilityConfig{
		Dir: "wal", Fsync: store.FsyncAlways, SnapshotEvery: 1000, SegmentBytes: 512, FS: fs,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	id := openStream(t, srv, "lateness=0&lanes=1")
	for i := 1; i <= 20; i++ {
		if _, resp := ingestChunkSeq(t, srv, id, uint64(i), chunkRow("probe", float64(i), float64(i*10), 0)); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d status %d", i, resp.StatusCode)
		}
	}
	clean, _, code := historyGet(t, srv, "")
	if code != http.StatusOK || strings.Count(clean, "\n") != 20 {
		t.Fatalf("clean query: status %d, body:\n%s", code, clean)
	}
	// The last bytes of the first sealed segment are the Y column of its
	// last chunk record.
	seg := walSegments(t, fs, "wal")[0]
	f, err := fs.Open("wal/" + seg.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(seg.Bytes-3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x5a}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	body, _, code := historyGet(t, srv, "")
	if code != http.StatusInternalServerError || !strings.Contains(body, seg.Name) {
		t.Fatalf("query over a corrupt chunk: status %d, body %q; want 500 naming %s", code, body, seg.Name)
	}
	// A window that does not need the damaged record is still served.
	if body, _, code := historyGet(t, srv, "mint=19"); code != http.StatusOK || strings.Count(body, "\n") != 2 {
		t.Fatalf("query beside the corrupt chunk: status %d, body:\n%s", code, body)
	}
}

// TestRecoveredSessionsJanitored: a restart that restores sessions
// from the WAL must also start the idle janitor. Before the fix the
// janitor only started on a live open(); a registry restored at
// MaxSessions then 429'd every open, and with opens failing the
// janitor could never start — streaming stayed wedged until another
// restart with an empty WAL.
func TestRecoveredSessionsJanitored(t *testing.T) {
	cfg := func(fs store.FS) server.Config {
		return server.Config{
			Logger: server.DiscardLogger(),
			Stream: server.StreamConfig{
				MaxSessions:  1,
				IdleTTL:      500 * time.Millisecond,
				JanitorEvery: time.Millisecond,
			},
			Durability: server.DurabilityConfig{Dir: "wal", Fsync: store.FsyncAlways, FS: fs},
		}
	}
	fs := faults.NewCrashFS()
	svc, err := server.OpenService(cfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	openStream(t, srv, "")
	srv.Close() // kill -9: the open record is durable, no close record

	svc2, err := server.OpenService(cfg(fs.Crash(0, false)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if n := svc2.Metrics().Gauge("sidq_stream_sessions_open").Value(); n != 1 {
		t.Fatalf("restored %d sessions, want 1 (the registry is at MaxSessions)", n)
	}
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(srv2.URL+"/v1/stream/open", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			return // the janitor evicted the restored idle session
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("open status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("restored-at-MaxSessions registry never unwedged: janitor not started by recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
