package session

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/israce"
	"sidq/internal/trajectory"
)

// row is one chunk row as the tests write them.
type row struct {
	src string
	pt  trajectory.Point
}

func ev(src string, t, x, y float64) row {
	return row{src, trajectory.Point{T: t, Pos: geo.Pt(x, y)}}
}

// rowsOf reads a rows block back as rows, each naming its source by id.
func rowsOf(c rowCols) []row {
	var ch Chunk
	c.into(&ch)
	out := make([]row, ch.Len())
	for i := range out {
		out[i] = row{ch.srcs[ch.idx[i]], ch.pts[i]}
	}
	return out
}

// sameRow compares rows by source and float bits.
func sameRow(a, b row) bool {
	return a.src == b.src && reflect.DeepEqual(
		[3]uint64{math.Float64bits(a.pt.T), math.Float64bits(a.pt.Pos.X), math.Float64bits(a.pt.Pos.Y)},
		[3]uint64{math.Float64bits(b.pt.T), math.Float64bits(b.pt.Pos.X), math.Float64bits(b.pt.Pos.Y)})
}

// chunkOf is the chunk of rows, built as every producer builds one.
func chunkOf(rows []row) *Chunk {
	c := new(Chunk)
	for _, r := range rows {
		c.Add(r.src, r.pt)
	}
	return c
}

// hostileChunk is a chunk no CSV body could carry: sources that need
// every kind of JSON escaping, and floats at the edges of both float
// formats.
func hostileChunk() []row {
	return []row{
		ev("plain", 1, 2, 3),
		ev(`quo"te\back`, 0, math.Copysign(0, -1), 1e21),
		ev("<html>&amp;", 1e-7, 9.999999e-7, 1e-6),
		ev("line\u2028sep\u2029", 5e-324, 2.2250738585072014e-308, -1.7976931348623157e308),
		ev("bad\xff\xfeutf8", 123456789012345678, 1e20, 999999999999999868928),
		ev("", -1e-7, 1e21+1e6, -1e21),
		ev("plain", 4503599627370497.5, -0.000001, 100),
		ev("tab\tnl\n\x00\x1f", 0.1, 0.2, 0.30000000000000004),
	}
}

func encodeChunk2(session string, chunkIdx, clientSeq uint64, events []row) []byte {
	enc := getRecEncoder()
	defer enc.release()
	return append([]byte(nil), enc.chunk(session, chunkIdx, clientSeq, chunkOf(events))...)
}

// manySources is a chunk over n distinct sources, to cross the source
// index's width step.
func manySources(n int) []row {
	events := make([]row, 0, n+1)
	for i := 0; i < n; i++ {
		events = append(events, ev("s"+string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('A'+i/260)), float64(i), float64(-i), 0.5))
	}
	return append(events, events[n/2])
}

// TestChunk2RoundTrip: rows come back in order, bit for bit, with the
// envelope, at both source-index widths.
func TestChunk2RoundTrip(t *testing.T) {
	for name, events := range map[string][]row{
		"empty": nil, "hostile": hostileChunk(), "256 sources": manySources(256), "257 sources": manySources(257),
	} {
		payload := encodeChunk2("st-000042", 7, 99, events)
		c, err := parseChunk2(payload, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(c.session) != "st-000042" || c.chunkIdx != 7 || c.clientSeq != 99 {
			t.Fatalf("%s: envelope %q %d %d", name, c.session, c.chunkIdx, c.clientSeq)
		}
		got := rowsOf(c.rowCols)
		if len(got) != len(events) {
			t.Fatalf("%s: %d rows back, want %d", name, len(got), len(events))
		}
		for i := range events {
			if !sameRow(got[i], events[i]) {
				t.Fatalf("%s: row %d came back %+v, want %+v", name, i, got[i], events[i])
			}
		}
	}
	if w := sourceIndexWidth(256); w != 1 {
		t.Fatalf("256 sources index in %d bytes, want 1", w)
	}
	if w := sourceIndexWidth(257); w != 4 {
		t.Fatalf("257 sources index in %d bytes, want 4", w)
	}
}

// TestChunk2EncodeReusesBuffers: once the pool is warm an encode costs
// no allocation — nothing per chunk on the ack path but the WAL write.
func TestChunk2EncodeReusesBuffers(t *testing.T) {
	events := manySources(16)
	for i := 0; i < 240; i++ {
		events = append(events, events[i%16])
	}
	c := chunkOf(events)
	enc := getRecEncoder()
	defer enc.release()
	first := append([]byte(nil), enc.chunk("st-000001", 1, 0, c)...)
	allocs := testing.AllocsPerRun(50, func() {
		if !bytes.Equal(enc.chunk("st-000001", 1, 0, c), first) {
			t.Fatal("the same chunk encoded differently")
		}
	})
	if allocs != 0 && !israce.Enabled {
		t.Errorf("encode allocates %v times per chunk with warm buffers, want 0", allocs)
	}
	if got, want := float64(len(first))/float64(len(events)), 26.0; got > want {
		t.Errorf("a 256-row, 16-source chunk is %.1f bytes a row, want <= %.0f", got, want)
	}
}

// TestParseChunk2Allocs: History.Scan parses every candidate chunk in
// place, so a parse allocates the dictionary's table of slices and
// nothing else. The parser before it moved onto recReader made 1
// allocation for this chunk, and for one of 257 sources.
func TestParseChunk2Allocs(t *testing.T) {
	events := manySources(16)
	for i := 0; i < 240; i++ {
		events = append(events, events[i%16])
	}
	for _, payload := range [][]byte{encodeChunk2("st-000001", 1, 0, events), encodeChunk2("st-000001", 1, 0, manySources(257))} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := parseChunk2(payload, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 && !israce.Enabled {
			t.Errorf("parsing a chunk allocates %v times, want <= 1", allocs)
		}
	}
}

// FuzzDecodeChunk2 feeds arbitrary payloads to the chunk decoder. A
// record only reaches it after its CRC verified, so this is the second
// line — but a decoder that trusts a count is one bad writer away from
// a multi-gigabyte allocation or an index panic in a request handler.
// It must reject or fully validate: no panic, nothing sized past the
// input, every accessor in range, and whatever it accepts must survive
// a re-encode. `go test` runs the seeds below and the corpus in
// testdata/fuzz; `make fuzz` explores further.
func FuzzDecodeChunk2(f *testing.F) {
	good := encodeChunk2("st-000001", 3, 4, hostileChunk())
	f.Add([]byte{})
	f.Add([]byte(recMagic))
	f.Add(encodeChunk2("", 0, 0, nil))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(encodeChunk2("st-000002", 1, 0, manySources(257)))
	huge := append([]byte(nil), good[:20+4+len("st-000001")+4]...)
	copy(huge[20+4+len("st-000001"):], []byte{0xff, 0xff, 0xff, 0xff}) // a dictionary of 4G entries
	f.Add(huge)
	f.Fuzz(func(t *testing.T, p []byte) {
		c, err := parseChunk2(p, nil)
		if err != nil {
			return
		}
		if len(c.srcs)*4 > len(p) || c.n*25 > len(p) {
			t.Fatalf("%d sources and %d rows out of %d bytes", len(c.srcs), c.n, len(p))
		}
		events := rowsOf(c.rowCols)
		var ch Chunk
		c.into(&ch)
		enc := getRecEncoder()
		again := enc.chunk(string(c.session), c.chunkIdx, c.clientSeq, &ch)
		if !bytes.Equal(again, p) {
			t.Fatalf("the chunk parsed from %d bytes re-encodes to %d other bytes", len(p), len(again))
		}
		re, err := parseChunk2(again, nil)
		enc.release()
		if err != nil {
			t.Fatalf("re-encoded chunk does not parse: %v", err)
		}
		back := rowsOf(re.rowCols)
		if len(back) != len(events) {
			t.Fatalf("%d rows after a re-encode, had %d", len(back), len(events))
		}
		for i := range events {
			// NaN payloads are legal bytes here; sameRow compares bits.
			if !sameRow(events[i], back[i]) {
				t.Fatalf("row %d changed across a re-encode", i)
			}
		}
	})
}
