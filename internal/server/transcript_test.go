package server_test

// The route transcript: one scripted history against the service's
// public surface — every stream and history route, their 2xx, 4xx and
// 429 answers, a janitor sweep, a retention pass, a graceful close and a
// restart — with every response's status, headers and body written
// down, and the SHA-256 of every WAL record the history left behind.
// testdata/route_transcript.txt was written by this script at commit
// 833da19, the parent of the change that moved the session engine out
// of this package, and its responses are never regenerated: a refactor
// of either side of the engine/shell seam must answer these bytes. The
// "-- wal" lines follow the record format; they were rewritten once,
// when the session records left gob for the SQC layouts.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/server"
	"sidq/internal/store"
)

const transcriptFile = "testdata/route_transcript.txt"

// transcriptRewrites lists the only bodies allowed to differ from the
// parent's transcript: the 400s whose message ended "want a positive
// number" whatever the parameter wanted (of the parent's thirteen such
// bodies only maxspeed="0" and interval="-2", on the batch routes, were
// told the truth, and those two still read the same). Everything else
// is held byte for byte.
var transcriptRewrites = []struct{ param, want string }{
	{`lanes="0"`, "an integer in [1, 64]"},
	{`lanes="65"`, "an integer in [1, 64]"},
	{`lanes="two"`, "an integer in [1, 64]"},
	{`lateness="-1"`, "a number ≥ 0"},
	{`maxspeed="abc"`, "a number ≥ 0"},
	{`seq="-1"`, "a non-negative integer"},
	{`format="xml"`, "ndjson or csv"},
	{`minx="abc"`, "a number"},
	{`mint="abc"`, "a number"},
	{`maxy="NaN"`, "a number"},
}

// transcriptFixes are the other bytes allowed to differ from the
// parent's transcript, with what this build answers.
//
// Step 075 drains a session restored from its graceful-close snapshot,
// and gob, which omits zero values, brought the row ingested as
// "car-z,39.5,1e-7,-0" back with y = +0; the uninterrupted session says
// -0, and so does the SQC snapshot.
//
// The retention pass at base+1h keeps the same records but removes one
// segment fewer: the SQC records are smaller than the gob ones, so the
// log before the horizon fills five segments, not six.
var transcriptFixes = [][2]string{
	{"body (521 bytes):\n", "body (522 bytes):\n"},
	{`{"source":"car-z","t":39.5,"x":1e-7,"y":0}`, `{"source":"car-z","t":39.5,"x":1e-7,"y":-0}`},
	{"Compacted:1 SegmentsRemoved:6 HistoryTrimmed:9", "Compacted:1 SegmentsRemoved:5 HistoryTrimmed:9"},
}

// bodyBlock is how transcript.do writes a response body down.
func bodyBlock(body string) string {
	return fmt.Sprintf("body (%d bytes):\n%s\n--\n", len(body), body)
}

// transcript accumulates the script's observations.
type transcript struct {
	t    *testing.T
	b    bytes.Buffer
	step int
}

// do sends one request to svc and records what came back.
func (tr *transcript) do(svc *server.Service, method, target, body string) *httptest.ResponseRecorder {
	tr.t.Helper()
	tr.step++
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	req.Header.Set("X-Request-ID", fmt.Sprintf("step-%03d", tr.step))
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	fmt.Fprintf(&tr.b, "== %03d %s %s\n", tr.step, method, target)
	if body != "" {
		fmt.Fprintf(&tr.b, "request body: %q\n", body)
	}
	fmt.Fprintf(&tr.b, "status: %d\n", rec.Code)
	keys := make([]string, 0, len(rec.Header()))
	for k := range rec.Header() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&tr.b, "%s: %s\n", k, strings.Join(rec.Header()[k], " | "))
	}
	tr.b.WriteString(bodyBlock(rec.Body.String()))
	return rec
}

// note records something the script observed outside a request.
func (tr *transcript) note(format string, args ...any) {
	fmt.Fprintf(&tr.b, "-- "+format+"\n", args...)
}

// walHash records the SHA-256 over (type, payload) of every record in
// the log under dir, and how many of each type there are.
func (tr *transcript) walHash(fs store.FS, dir string) {
	tr.t.Helper()
	l, _, err := store.Open(dir, store.Options{FS: fs})
	if err != nil {
		tr.t.Fatal(err)
	}
	defer l.Close()
	h := sha256.New()
	counts := map[byte]int{}
	n := 0
	err = l.Replay(func(r store.Record) error {
		h.Write([]byte{r.Type})
		h.Write(r.Payload)
		counts[r.Type]++
		n++
		return nil
	})
	if err != nil {
		tr.t.Fatal(err)
	}
	tr.note("wal %s: %d records from seq %d, by type %v, sha256 %x", dir, n, l.FirstSeq(), counts, h.Sum(nil))
}

func rows(src string, from, to int, y float64) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		fmt.Fprintf(&b, "%s,%d,%d,%g\n", src, i, 10*i, y)
	}
	return b.String()
}

// runTranscript is the scripted history.
func runTranscript(t *testing.T) []byte {
	tr := &transcript{t: t}
	fs := faults.NewCrashFS()
	cfg := server.Config{
		Logger: server.DiscardLogger(),
		Stream: server.StreamConfig{MaxSessions: 4, MaxLanePending: 6, MaxResults: 8},
		Durability: server.DurabilityConfig{
			Dir: "wal", Fsync: store.FsyncAlways, SnapshotEvery: 2, SegmentBytes: 512, FS: fs,
			Retain: 10 * time.Second, RetainEvery: time.Hour,
		},
	}
	svc, err := server.OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Opens.
	tr.do(svc, "POST", "/v1/stream/open", "")                               // st-000001
	tr.do(svc, "POST", "/v1/stream/open?lanes=2&lateness=0&maxspeed=0", "") // st-000002

	// Ingests with ?seq=: in order, a duplicate, a gap, and one that
	// arrives after its successor. Rows out of order inside the lateness
	// bound, one beyond it, one teleport for the speed gate, a quoted id.
	in1 := "/v1/stream/ingest?session=st-000001"
	tr.do(svc, "POST", in1+"&seq=1", "id,t,x,y\ncar-a,1,10,5\ncar-b,0.5,8,100\ncar-a,2,20,5\n")
	tr.do(svc, "POST", in1+"&seq=2", "car-a,9,90,5\ncar-a,8,80,5\n\"bus \"\"7\"\"\",3.25,9.125,40\n")
	tr.do(svc, "POST", in1+"&seq=2", "car-a,9,90,5\ncar-a,8,80,5\n")
	tr.do(svc, "POST", in1+"&seq=4", "car-a,20,200,5\ncar-b,19.5,156,100\ncar-a,20.25,90000,90000\n")
	tr.do(svc, "POST", in1+"&seq=3", "car-a,10,100,5\n")
	tr.do(svc, "GET", "/v1/stream/st-000001/results", "")
	tr.do(svc, "POST", in1, "car-a,2.5,25,5\ncar-b,30,240,100\ncar-a,31,310,5\n")
	tr.do(svc, "GET", "/v1/stream/st-000001/results?format=csv", "")
	tr.do(svc, "GET", "/v1/stream/st-000001/results?format=ndjson", "") // nothing new: an empty drain

	// Results-full 429 on st-000002, then a csv drain frees it.
	in2 := "/v1/stream/ingest?session=st-000002"
	tr.do(svc, "POST", in2, rows("veh-0", 0, 4, 0)+rows("veh-1", 0, 4, -7.5))
	tr.do(svc, "POST", in2, "veh-0,10,9,0\n")
	tr.do(svc, "GET", "/v1/stream/st-000002/results?format=csv", "")
	tr.do(svc, "POST", in2, "veh-0,10,9,0\n")
	tr.do(svc, "GET", "/v1/stream/st-000002/results?flush=true&format=csv", "")

	// Lane-full 429 on a session that never releases.
	tr.do(svc, "POST", "/v1/stream/open?lateness=1000000&lanes=1", "") // st-000003
	in3 := "/v1/stream/ingest?session=st-000003"
	tr.do(svc, "POST", in3, rows("slow", 1, 7, 0))
	tr.do(svc, "POST", in3, "slow,7,70,0\n")
	tr.do(svc, "POST", in3, "")

	// Session-limit 429.
	tr.do(svc, "POST", "/v1/stream/open", "") // st-000004
	tr.do(svc, "POST", "/v1/stream/open", "")

	// Close, and what a closed id answers.
	tr.do(svc, "DELETE", "/v1/stream/st-000002", "")
	tr.do(svc, "DELETE", "/v1/stream/st-000002", "")
	tr.do(svc, "POST", in2, "veh-0,11,10,0\n")
	tr.do(svc, "GET", "/v1/stream/st-000002/results", "")
	tr.do(svc, "DELETE", "/v1/stream/st-000003", "")
	tr.do(svc, "DELETE", "/v1/stream/st-000004", "")

	// 400s.
	for _, target := range []string{
		"/v1/stream/open?lanes=0",
		"/v1/stream/open?lanes=65",
		"/v1/stream/open?lanes=two",
		"/v1/stream/open?lateness=-1",
		"/v1/stream/open?maxspeed=abc",
		"/v1/stream/ingest?session=st-000001&seq=-1",
		"/v1/stream/ingest?seq=3",
		"/v1/stream/ingest?session=st-000001",
	} {
		tr.do(svc, "POST", target, "car-a,not-a-time,1,2\n")
	}
	tr.do(svc, "POST", "/v1/clean?maxspeed=0", "id,t,x,y\na,1,2,3\n")
	tr.do(svc, "POST", "/v1/assess?interval=-2", "id,t,x,y\na,1,2,3\n")
	for _, target := range []string{
		"/v1/stream/st-000001/results?format=xml",
		"/v1/history/range?format=xml",
		"/v1/history/range?minx=abc",
		"/v1/history/range?mint=abc",
		"/v1/history/range?maxy=NaN",
		"/v1/history/range?mint=9&maxt=3",
		"/v1/history/range?minx=2&maxx=1",
	} {
		tr.do(svc, "GET", target, "")
	}

	// 404s. An unknown session is answered from the query string, before
	// the body is looked at.
	tr.do(svc, "POST", "/v1/stream/ingest?session=st-999999", "car-a,not-a-time,1,2\n")
	tr.do(svc, "GET", "/v1/stream/st-999999/results?format=xml", "")
	tr.do(svc, "DELETE", "/v1/stream/st-999999", "")
	tr.do(svc, "GET", "/v1/stream/", "")
	tr.do(svc, "GET", "/v1/stream/a/b", "")
	mem := server.NewService(server.Config{Logger: server.DiscardLogger()})
	tr.do(mem, "GET", "/v1/history/range?minx=abc", "")
	mem.Close()

	// 405s on all five routes.
	tr.do(svc, "GET", "/v1/stream/open", "")
	tr.do(svc, "GET", "/v1/stream/ingest?session=st-000001", "")
	tr.do(svc, "POST", "/v1/stream/st-000001/results", "")
	tr.do(svc, "POST", "/v1/stream/st-000001", "")
	tr.do(svc, "POST", "/v1/history/range", "")

	// History: everything, then windows that cut chunks in space, in
	// time, and in both; an empty one.
	for _, q := range []string{
		"", "format=csv",
		"minx=15&maxx=95", "minx=15&maxx=95&format=csv",
		"mint=2&maxt=9&maxy=50", "mint=2&maxt=9&maxy=50&format=csv",
		"miny=1000", "miny=1000&format=csv",
	} {
		tr.do(svc, "GET", "/v1/history/range?"+q, "")
	}

	// A kill -9 here would leave exactly this log.
	tr.walHash(fs.Crash(0, false), "wal")

	// A janitor sweep as of an hour from now evicts the one live session.
	tr.note("EvictIdleStreams(+1h) = %d", svc.EvictIdleStreams(time.Now().Add(time.Hour)))
	tr.do(svc, "POST", in1, "car-a,40,400,5\n")
	tr.do(svc, "GET", "/v1/stream/st-000001/results", "")

	// A new session and two retention passes at made-up instants an hour
	// apart: the second finds the session's checkpoint behind the age
	// floor, compacts it and truncates the log.
	tr.do(svc, "POST", "/v1/stream/open?lateness=2&maxspeed=50&lanes=3", "") // st-000005
	in5 := "/v1/stream/ingest?session=st-000005"
	tr.do(svc, "POST", in5+"&seq=1", rows("tram<1>&co", 40, 43, 2.5e21)+"car-z,39.5,1e-7,-0\n")
	tr.do(svc, "POST", in5+"&seq=2", rows("tram<1>&co", 43, 45, 2.5e21))
	tr.do(svc, "POST", in5+"&seq=3", "car-z,44,2e-7,0\n")
	base := time.Unix(1_000_000, 0)
	tr.note("RunRetentionOnce(base) = %+v", svc.RunRetentionOnce(base))
	tr.note("RunRetentionOnce(base+1h) = %+v", svc.RunRetentionOnce(base.Add(time.Hour)))
	tr.do(svc, "GET", "/v1/history/range", "")
	tr.do(svc, "GET", "/v1/history/range?mint=41&format=csv", "")

	// Graceful close (a checkpoint of st-000005), restart, and the same
	// session carries on: a retry of seq 3, a new chunk, end of stream.
	svc.Close()
	svc, err = server.OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.do(svc, "POST", in5+"&seq=3", "car-z,44,2e-7,0\n")
	tr.do(svc, "POST", in5+"&seq=4", "car-z,45,3e-7,0\ntram<1>&co,45,450,2.5e21\n")
	tr.do(svc, "GET", "/v1/stream/st-000005/results?flush=1", "")
	tr.do(svc, "GET", "/v1/history/range?mint=41", "")
	tr.do(svc, "POST", "/v1/stream/open", "") // ids go on from the recovered ones
	tr.do(svc, "DELETE", "/v1/stream/st-000006", "")
	// A kill -9 here: no close. Every acked record is in the files.
	tr.walHash(fs.Crash(0, false), "wal")

	// A matched service: every released point goes through the online map
	// matcher, snapshots carry its lattice, a restart resumes it.
	g := roadnet.NewGraph()
	a, b, c := g.AddNode(geo.Pt(0, 0)), g.AddNode(geo.Pt(1000, 0)), g.AddNode(geo.Pt(1000, 800))
	g.AddBidirectional(a, b, 15)
	g.AddBidirectional(b, c, 15)
	mfs := faults.NewCrashFS()
	mcfg := server.Config{
		Logger:     server.DiscardLogger(),
		Stream:     server.StreamConfig{Network: g},
		Durability: server.DurabilityConfig{Dir: "wal", Fsync: store.FsyncAlways, SnapshotEvery: 2, FS: mfs},
	}
	msvc, err := server.OpenService(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.do(msvc, "POST", "/v1/stream/open?lateness=1&maxspeed=0&lanes=2", "")
	chunk := func(from, to int) string {
		var sb strings.Builder
		for i := from; i < to; i++ {
			fmt.Fprintf(&sb, "veh-0,%d,%d,%g\nveh-1,%d,%g,%d\n", i, i*10, float64(i%3)-1, i, 1000+float64(i%2), i*8)
		}
		return sb.String()
	}
	min := "/v1/stream/ingest?session=st-000001"
	tr.do(msvc, "POST", min+"&seq=1", chunk(0, 8))
	tr.do(msvc, "POST", min+"&seq=2", chunk(8, 16))
	tr.do(msvc, "GET", "/v1/stream/st-000001/results", "")
	tr.do(msvc, "POST", min+"&seq=3", chunk(16, 20))
	msvc.Close()
	msvc, err = server.OpenService(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.do(msvc, "POST", min+"&seq=4", chunk(20, 24))
	tr.do(msvc, "GET", "/v1/stream/st-000001/results?format=csv", "")
	tr.do(msvc, "GET", "/v1/stream/st-000001/results?flush=1", "")
	tr.do(msvc, "DELETE", "/v1/stream/st-000001", "")
	msvc.Close()
	tr.walHash(mfs, "wal")
	return tr.b.Bytes()
}

func TestRouteTranscriptMatchesParent(t *testing.T) {
	got := runTranscript(t)
	want, err := os.ReadFile(transcriptFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range transcriptRewrites {
		msg := "invalid query parameter " + rw.param + ": want "
		parent, now := bodyBlock(msg+"a positive number\n"), bodyBlock(msg+rw.want+"\n")
		if !bytes.Contains(want, []byte(parent)) {
			t.Errorf("rewrite %s: the parent's transcript has no such body", rw.param)
		}
		want = bytes.ReplaceAll(want, []byte(parent), []byte(now))
	}
	for _, fix := range transcriptFixes {
		if n := bytes.Count(want, []byte(fix[0])); n != 1 {
			t.Errorf("fix %q: the parent's transcript has it %d times, want once", fix[0], n)
		}
		want = bytes.Replace(want, []byte(fix[0]), []byte(fix[1]), 1)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("transcript differs from the parent's at line %d:\nparent: %s\nnow:    %s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("transcript is %d lines, the parent's %d", len(gl), len(wl))
}
