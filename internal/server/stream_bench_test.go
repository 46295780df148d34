package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/session"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// BenchmarkStreamIngest measures the streaming ingest path end to end:
// one session per op, chunked CSV posts through the real handler stack
// (body decode, lane fan-in, watermarking, incremental cleaning), then
// a full drain. This is the row that guards the server-side cost of a
// chunk — the CSV decode and the result drain both land here.
func BenchmarkStreamIngest(b *testing.B) {
	svc := newTestService(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Pre-render in-order chunks: 3 sources x 240 points split into 12
	// chunks, clean data so the planner stays out of the way and the
	// measurement isolates ingest mechanics.
	region := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	var trs []*trajectory.Trajectory
	for i := 0; i < 3; i++ {
		trs = append(trs, simulate.RandomWalk(fmt.Sprintf("veh-%d", i), region, 240, 2, 1, int64(i+1)))
	}
	const chunks = 12
	chunkCSV := make([]string, chunks)
	for c := 0; c < chunks; c++ {
		var sb strings.Builder
		sb.WriteString("id,t,x,y\n")
		for _, tr := range trs {
			per := tr.Len() / chunks
			for _, p := range tr.Points[c*per : (c+1)*per] {
				fmt.Fprintf(&sb, "%s,%g,%g,%g\n", tr.ID, p.T, p.Pos.X, p.Pos.Y)
			}
		}
		chunkCSV[c] = sb.String()
	}

	post := func(url, body string) (*http.Response, error) {
		return http.Post(url, "text/csv", strings.NewReader(body))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := post(srv.URL+"/v1/stream/open", "")
		if err != nil || resp.StatusCode != http.StatusCreated {
			b.Fatalf("open: %v %v", err, resp.StatusCode)
		}
		var out struct {
			Session string `json:"session"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for _, chunk := range chunkCSV {
			resp, err := post(srv.URL+"/v1/stream/ingest?session="+out.Session, chunk)
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("ingest: %v %v", err, resp.StatusCode)
			}
			drainBody(resp)
		}
		resp, err = http.Get(srv.URL + "/v1/stream/" + out.Session + "/results?flush=1&format=csv")
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("drain: %v %v", err, resp.StatusCode)
		}
		drainBody(resp)
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/stream/"+out.Session, nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("close: %v %v", err, resp.StatusCode)
		}
		drainBody(resp)
	}
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// BenchmarkParsePointChunkSources measures parsePointChunk alone on a
// chunk of 4 096 rows spread round-robin over a varying number of
// sources. The ids share a length and a prefix, and under
// "ids=suffixed" also their last byte, so a linear compare reads each
// one whole. It is the measurement behind session.Chunk's table of 16
// ids: past the table, a row's source lookup is one map lookup, as it
// is with a map alone.
func BenchmarkParsePointChunkSources(b *testing.B) {
	const rows = 4096
	for _, form := range []struct{ name, format string }{{"numbered", "veh-%05d"}, {"suffixed", "%05d-gps"}} {
		for _, sources := range []int{4, 8, 16, 17, 64, 256, 1024} {
			var sb strings.Builder
			for i := 0; i < rows; i++ {
				fmt.Fprintf(&sb, form.format+",%d,%d.5,%d.25\n", i%sources, i/sources, i%1000, i%777)
			}
			body := []byte(sb.String())
			b.Run(fmt.Sprintf("ids=%s/sources=%d", form.name, sources), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				var c session.Chunk
				for i := 0; i < b.N; i++ {
					if err := parsePointChunk(&c, body); err != nil || c.Len() != rows {
						b.Fatalf("parse: %d rows, err %v", c.Len(), err)
					}
				}
			})
		}
	}
}
