package store

import (
	"bytes"
	"testing"
)

// FuzzScanSegment feeds arbitrary bytes to the segment scanner — what a
// crash, a bad disk or a truncated copy can leave in a segment file. It
// must never panic, must stop at the first frame that does not verify,
// must report boundaries that re-frame to exactly the bytes it accepted,
// and must not size anything by a length field it has not checked
// against the input. `go test` runs the seeds below and the corpus in
// testdata/fuzz; `make fuzz` explores further.
func FuzzScanSegment(f *testing.F) {
	two := appendRecord(appendRecord(nil, 2, nil), 7, bytes.Repeat([]byte{0xab}, 300))
	f.Add([]byte{})
	f.Add(appendRecord(nil, 1, []byte("hello")))
	f.Add(two)
	f.Add(two[:len(two)-1])                                // torn payload
	f.Add(two[:recordHeader+3])                            // torn header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})   // length far past MaxRecord
	f.Add(append(append([]byte(nil), two...), two[5:]...)) // garbage after good frames
	f.Fuzz(func(t *testing.T, b []byte) {
		res := scanSegment(b)
		n := len(res.records)
		if len(res.offs) != n+1 || res.offs[0] != 0 || res.offs[n] != res.good() {
			t.Fatalf("boundaries %v do not frame %d records ending at %d", res.offs, n, res.good())
		}
		if res.good() > int64(len(b)) || res.torn != (res.good() < int64(len(b))) {
			t.Fatalf("good %d torn %v for %d input bytes", res.good(), res.torn, len(b))
		}
		if n*recordHeader > len(b) {
			t.Fatalf("%d records out of %d bytes", n, len(b))
		}
		var re []byte
		for i, r := range res.records {
			re = appendRecord(re, r.Type, r.Payload)
			if int64(len(re)) != res.offs[i+1] {
				t.Fatalf("record %d ends at %d, boundary says %d", i, len(re), res.offs[i+1])
			}
		}
		if !bytes.Equal(re, b[:res.good()]) {
			t.Fatal("the accepted records do not re-frame to the accepted bytes")
		}
		if res.torn {
			if _, _, _, err := parseRecord(b[res.good():]); err == nil {
				t.Fatal("the scan stopped in front of a frame that verifies")
			}
		}
	})
}
