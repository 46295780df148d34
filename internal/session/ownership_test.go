package session_test

// Buffer ownership on the engine's side of the seam (DESIGN.md "Buffer
// ownership on the serving path"), named *Hammer* so `make race-hammer`
// runs it under -race: the results slab travels engine -> shell -> pool
// -> another session, and no drain may ever show a row of someone
// else's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sidq/internal/session"
)

// TestResultsSlabHammerMatchesCopyingReference: sessions ingest and
// drain concurrently, so drained slabs travel between them through the
// pool while responses are still being rendered. Each session's drains,
// concatenated, must be the bytes a reference renders from copies of
// the same results taken under no concurrency at all.
func TestResultsSlabHammerMatchesCopyingReference(t *testing.T) {
	const sessions, chunks = 4, 48
	feed := func(s int) []string {
		out := make([]string, chunks)
		for c := range out {
			out[c] = gridChunk(fmt.Sprintf("s%d-", s), c, 5, 8)
		}
		return out
	}
	// The reference: an engine of its own, serial ingest, one drain at
	// end of stream, the results copied out of the session's slab and
	// rendered by encoding/json.
	reference := func(s int) string {
		eng := session.New(session.Config{})
		id, err := eng.OpenSession(5, 20, 4, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range feed(s) {
			if _, err := eng.Ingest(id, chunkOf(rowsOfChunk(t, c)), 0, time.Now()); err != nil {
				t.Fatal(err)
			}
		}
		res, srcs, err := eng.Drain(id, true, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		copied := append([]session.Result(nil), res...)
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, r := range copied {
			row := wireRow{Source: srcs[r.Src], T: r.T, X: r.X, Y: r.Y}
			if r.HasEdge {
				row.Edge = &r.Edge
			}
			enc.Encode(row)
		}
		return b.String()
	}

	svc := newMemService()
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := openStream(t, srv, "")
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for _, c := range feed(s) {
					if _, resp := ingestChunk(t, srv, id, c); resp.StatusCode != http.StatusOK {
						t.Errorf("session %d: ingest status %d", s, resp.StatusCode)
						return
					}
				}
			}()
			var got strings.Builder
			for feeding := true; feeding; {
				select {
				case <-fed:
					feeding = false
				default:
				}
				body, resp := drainStream(t, srv, id, "")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("session %d: drain status %d", s, resp.StatusCode)
					return
				}
				got.WriteString(body)
			}
			body, _ := drainStream(t, srv, id, "flush=1")
			got.WriteString(body)
			if want := reference(s); got.String() != want {
				t.Errorf("session %d: %d bytes drained under concurrency differ from the %d-byte copying reference",
					s, got.Len(), len(want))
			}
		}(s)
	}
	wg.Wait()
}
