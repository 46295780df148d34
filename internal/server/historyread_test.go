package server

// A history query reads its chunk records into a buffer the store pools
// across calls (store.Log.ReadSeqs), and every row the query returns is
// decoded from that buffer while the scan is on it. The hammer runs
// queries of every shape side by side with ingest, so a buffer handed
// back while a scan still reads it shows as a wrong answer — and under
// -race as a race.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sidq/internal/store"
)

// TestHistoryReadHammer runs narrow and wide /v1/history/range queries,
// ndjson and csv, from many goroutines while another session ingests.
// The queries' windows end before the first stamp the concurrent ingest
// sends, and every answer must equal the one the same query gets
// serially once ingest has stopped. Small segments keep the read path
// crossing sealed segments and the one still being written. Run under
// -race it is the ownership gate of the pooled record buffer (make
// race-hammer).
func TestHistoryReadHammer(t *testing.T) {
	const (
		sources, rows = 8, 8
		loaded        = 48                 // chunks in the log before the hammer
		lastStamp     = loaded*rows - 1    // the queries' windows end here
		midStamp      = lastStamp / 2      // the narrow window's centre
		more          = 48                 // chunks the concurrent ingest adds
		workers       = 6                  // query goroutines
		rounds        = 20                 // queries each
		segmentBytes  = 4 << 10            // a few chunk records a segment
		narrowHalf    = 2 * rows           // the narrow window's half-width in stamps
		narrowMaxY    = 10 * (sources / 2) // and its first half of the sources
	)
	svc, err := OpenService(Config{
		Logger: DiscardLogger(),
		Durability: DurabilityConfig{
			Dir: t.TempDir(), Fsync: store.FsyncOff, SegmentBytes: segmentBytes, SnapshotEvery: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	loader := openStream(t, srv, "lateness=0")
	for c := 0; c < loaded; c++ {
		if _, resp := ingestChunk(t, srv, loader, gridChunk("veh-", c, sources, rows)); resp.StatusCode != http.StatusOK {
			t.Fatalf("load chunk %d: status %d", c, resp.StatusCode)
		}
	}
	queries := []string{
		fmt.Sprintf("maxt=%d", lastStamp),
		fmt.Sprintf("maxt=%d&format=csv", lastStamp),
		fmt.Sprintf("mint=%d&maxt=%d&maxy=%d", midStamp-narrowHalf, midStamp+narrowHalf, narrowMaxY),
		fmt.Sprintf("mint=%d&maxt=%d&maxy=%d&format=csv", midStamp-narrowHalf, midStamp+narrowHalf, narrowMaxY),
	}
	get := func(q string) (string, error) {
		resp, err := http.Get(srv.URL + "/v1/history/range?" + q)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
		}
		return string(body), err
	}

	// The ingest beside the queries: its own session, its stamps past
	// every window, so it rolls segments under the readers without
	// changing what they must return.
	writer := openStream(t, srv, "lateness=0")
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := loaded; c < loaded+more; c++ {
			resp, err := http.Post(fmt.Sprintf("%s/v1/stream/ingest?session=%s", srv.URL, writer), "text/csv",
				strings.NewReader(gridChunk("cab-", c, sources, rows)))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("concurrent ingest of chunk %d: status %d", c, resp.StatusCode)
				return
			}
		}
	}()
	got := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body, err := get(queries[(w+r)%len(queries)])
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d, %s: %v", w, r, queries[(w+r)%len(queries)], err)
					return
				}
				got[w] = append(got[w], body)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := make([]string, len(queries))
	for k, q := range queries {
		if want[k], err = get(q); err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		if want[k] == "" {
			t.Fatalf("serial %s: no rows; the window must hold some", q)
		}
	}
	if len(want[0]) <= len(want[2]) {
		t.Fatalf("the wide answer (%d bytes) is no wider than the narrow one (%d)", len(want[0]), len(want[2]))
	}
	for w := range got {
		for r, body := range got[w] {
			if k := (w + r) % len(queries); body != want[k] {
				t.Errorf("worker %d round %d, %s: %d bytes differ from the %d-byte serial answer", w, r, queries[k], len(body), len(want[k]))
			}
		}
	}
}
