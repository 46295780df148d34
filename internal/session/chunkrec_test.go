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

func ev(src string, t, x, y float64) Event {
	return Event{Time: t, Value: Sample{Src: src, Pt: trajectory.Point{T: t, Pos: geo.Pt(x, y)}}}
}

// hostileChunk is a chunk no CSV body could carry: sources that need
// every kind of JSON escaping, and floats at the edges of both float
// formats.
func hostileChunk() []Event {
	return []Event{
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

func encodeChunk2(session string, chunkIdx, clientSeq uint64, events []Event) []byte {
	enc := getRecEncoder()
	defer enc.release()
	return append([]byte(nil), enc.chunk(session, chunkIdx, clientSeq, events)...)
}

// manySources is a chunk over n distinct sources, to cross the source
// index's width step.
func manySources(n int) []Event {
	events := make([]Event, 0, n+1)
	for i := 0; i < n; i++ {
		events = append(events, ev("s"+string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('A'+i/260)), float64(i), float64(-i), 0.5))
	}
	return append(events, events[n/2])
}

// TestChunk2RoundTrip: events come back in order, bit for bit, with the
// envelope, at both source-index widths.
func TestChunk2RoundTrip(t *testing.T) {
	for name, events := range map[string][]Event{
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
		got := c.events()
		if len(got) != len(events) {
			t.Fatalf("%s: %d events back, want %d", name, len(got), len(events))
		}
		for i := range events {
			w, g := events[i].Value, got[i].Value
			if g.Src != w.Src || math.Float64bits(g.Pt.T) != math.Float64bits(w.Pt.T) ||
				math.Float64bits(g.Pt.Pos.X) != math.Float64bits(w.Pt.Pos.X) ||
				math.Float64bits(g.Pt.Pos.Y) != math.Float64bits(w.Pt.Pos.Y) ||
				math.Float64bits(got[i].Time) != math.Float64bits(w.Pt.T) {
				t.Fatalf("%s: event %d came back %+v, want %+v", name, i, got[i], events[i])
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
	enc := getRecEncoder()
	defer enc.release()
	first := append([]byte(nil), enc.chunk("st-000001", 1, 0, events)...)
	allocs := testing.AllocsPerRun(50, func() {
		if !bytes.Equal(enc.chunk("st-000001", 1, 0, events), first) {
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
		events := c.events()
		re, err := parseChunk2(encodeChunk2(string(c.session), c.chunkIdx, c.clientSeq, events), nil)
		if err != nil {
			t.Fatalf("re-encoded chunk does not parse: %v", err)
		}
		back := re.events()
		if len(back) != len(events) {
			t.Fatalf("%d events after a re-encode, had %d", len(back), len(events))
		}
		for i := range events {
			// NaN payloads are legal bytes here; compare bits, not values.
			a, b := events[i].Value, back[i].Value
			if a.Src != b.Src || !reflect.DeepEqual(
				[3]uint64{math.Float64bits(a.Pt.T), math.Float64bits(a.Pt.Pos.X), math.Float64bits(a.Pt.Pos.Y)},
				[3]uint64{math.Float64bits(b.Pt.T), math.Float64bits(b.Pt.Pos.X), math.Float64bits(b.Pt.Pos.Y)}) {
				t.Fatalf("event %d changed across a re-encode", i)
			}
		}
	})
}
