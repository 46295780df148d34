package simulate

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestReplayDeterministic(t *testing.T) {
	opt := ReplayOptions{Seed: 7, Sources: 3}
	a, b := NewReplay(opt), NewReplay(opt)
	for chunk := 0; chunk < 5; chunk++ {
		ca := a.AppendChunk(nil, 2, chunk, 48)
		cb := b.AppendChunk(nil, 2, chunk, 48)
		if !bytes.Equal(ca, cb) {
			t.Fatalf("chunk %d differs between identically-seeded replays", chunk)
		}
	}
	if !bytes.Equal(a.BatchCSV(2), b.BatchCSV(2)) {
		t.Fatal("BatchCSV differs between identically-seeded replays")
	}
	c := NewReplay(ReplayOptions{Seed: 8, Sources: 3})
	if bytes.Equal(a.AppendChunk(nil, 2, 0, 48), c.AppendChunk(nil, 2, 0, 48)) {
		t.Fatal("different seeds produced identical chunks")
	}
}

func TestReplayChunkFormatAndNamespaces(t *testing.T) {
	r := NewReplay(ReplayOptions{Seed: 1, Sources: 2})
	raw := r.AppendChunk(nil, 3, 0, 16)
	cr := csv.NewReader(bytes.NewReader(raw))
	cr.FieldsPerRecord = 4
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("chunk is not 4-field CSV: %v", err)
	}
	if len(rows) != 16 {
		t.Fatalf("got %d rows, want 16", len(rows))
	}
	for _, row := range rows {
		if !strings.HasPrefix(row[0], "w3-s") {
			t.Fatalf("source id %q not namespaced to stream 3", row[0])
		}
		for _, f := range row[1:] {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Fatalf("field %q not a float: %v", f, err)
			}
		}
	}
}

// feedPoint is one decoded row of a chunk.
type feedPoint struct {
	Source  string
	T, X, Y float64
}

func chunkPoints(t *testing.T, raw []byte) []feedPoint {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]feedPoint, len(rows))
	for i, row := range rows {
		out[i].Source = row[0]
		for j, dst := range []*float64{&out[i].T, &out[i].X, &out[i].Y} {
			if *dst, err = strconv.ParseFloat(row[j+1], 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func TestReplayTimesNonDecreasingAcrossWrap(t *testing.T) {
	r := NewReplay(ReplayOptions{Seed: 3, Sources: 2})
	// Enough chunks to wrap every source several times.
	last := map[string]float64{}
	for chunk := 0; chunk < 200; chunk++ {
		for _, p := range chunkPoints(t, r.AppendChunk(nil, 0, chunk, 32)) {
			if prev, ok := last[p.Source]; ok && p.T < prev {
				t.Fatalf("source %s time went backwards: %v after %v (chunk %d)", p.Source, p.T, prev, chunk)
			}
			last[p.Source] = p.T
		}
	}
	if len(last) != 2 {
		t.Fatalf("saw %d sources, want 2", len(last))
	}
}

func TestReplayExtentAndSpan(t *testing.T) {
	r := NewReplay(ReplayOptions{Seed: 5})
	ext := r.Extent()
	if !(ext.Max.X > ext.Min.X && ext.Max.Y > ext.Min.Y) {
		t.Fatalf("degenerate extent %+v", ext)
	}
	if r.Span() <= 0 {
		t.Fatalf("span %v, want > 0", r.Span())
	}
	for _, p := range chunkPoints(t, r.AppendChunk(nil, 0, 0, 64)) {
		if p.X < ext.Min.X || p.X > ext.Max.X || p.Y < ext.Min.Y || p.Y > ext.Max.Y {
			t.Fatalf("point %+v outside extent %+v", p, ext)
		}
	}
}
