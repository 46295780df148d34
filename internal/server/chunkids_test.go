package server

// A chunk interns its source ids in an on-stack table of chunkIDTable
// entries and, once it names more, in a map alone (parsePointChunk's
// idTable). A client picks how many distinct ids a chunk carries, so
// these tests send far more than the table holds: the parse must stay
// linear in them, and every id must still be a copy, not a view of the
// pooled body.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"sidq/internal/israce"
	"sidq/internal/session"
)

// distinctIDChunk is a chunk of n rows, each of its own source: prefix
// then a five-digit number, all of one length, at stamp tm.
func distinctIDChunk(prefix string, n int, tm float64) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s%05d,%g,%d,%d\n", prefix, i, tm, i%1000, i/1000)
	}
	return []byte(b.String())
}

// parseCost is the least time and bytes of five parses of body. The
// slab is dropped, not pooled, so every parse grows one as it goes.
func parseCost(t *testing.T, body []byte) (time.Duration, uint64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best, bytes := time.Duration(1<<62), ^uint64(0)
	for r := 0; r < 5; r++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		events, err := parsePointChunk(body)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil || len(events) != strings.Count(string(body), "\n") {
			t.Fatalf("parse: %d events, err %v", len(events), err)
		}
		best, bytes = min(best, elapsed), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return best, bytes
}

// TestParsePointChunkManyIDsStaysLinear: a chunk of 50 000 distinct ids
// costs, in time and in bytes, at most hostileSlack times 50 a chunk of
// 1 000 (both past the table). A table searched linearly with no map
// behind it would make the larger parse 2 500 times the smaller.
func TestParsePointChunkManyIDsStaysLinear(t *testing.T) {
	const small, large, hostileSlack = 1_000, 50_000, 4
	smallTime, smallBytes := parseCost(t, distinctIDChunk("s-", small, 1))
	largeTime, largeBytes := parseCost(t, distinctIDChunk("s-", large, 1))
	t.Logf("%d distinct ids: %v, %d bytes; %d: %v, %d bytes", small, smallTime, smallBytes, large, largeTime, largeBytes)
	const scale = hostileSlack * large / small
	if largeTime > scale*smallTime {
		t.Errorf("%d distinct ids parse in %v, %d in %v: more than %d times", large, largeTime, small, smallTime, scale)
	}
	if largeBytes > scale*smallBytes && !israce.Enabled {
		t.Errorf("%d distinct ids allocate %d bytes, %d allocate %d: more than %d times", large, largeBytes, small, smallBytes, scale)
	}
}

// TestManyIDChunkNamesSurviveBodyReuse: the source names a session
// drains are the ones its chunk sent, after the pooled body that
// carried them has been reused for a second chunk of other ids of the
// same length. Both chunks have 20 000 distinct ids, so most of them
// are interned past the table. It runs on one P with collections held
// off, so the second chunk's body is the first one's buffer (under
// -race, sync.Pool drops some of what it is given, so there the check
// bites only most of the time).
func TestManyIDChunkNamesSurviveBodyReuse(t *testing.T) {
	const ids = 20_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	svc := newTestService(Config{Stream: StreamConfig{MaxLanePending: 2 * ids, MaxResults: 4 * ids}})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	id := openStream(t, srv, "lateness=0")
	first, second := distinctIDChunk("h-", ids, 1), distinctIDChunk("g-", ids, 2)
	for seq, body := range [][]byte{first, second} {
		if _, resp := ingestChunk(t, srv, fmt.Sprintf("%s&seq=%d", id, seq+1), string(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest chunk %d: status %d", seq+1, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stream/" + id + "/results?flush=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, body := range [][]byte{first, second} {
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			want[line[:strings.IndexByte(line, ',')]] = true
		}
	}
	drained := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res session.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("drained line %q: %v", sc.Text(), err)
		}
		if !want[res.Source] {
			t.Fatalf("drained source %q: sent by no chunk, or drained twice (a view of a reused body?)", res.Source)
		}
		delete(want, res.Source)
		drained++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("%d sources drained, %d sent never came out", drained, len(want))
	}
}
