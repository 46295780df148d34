package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanSegment feeds arbitrary bytes to the frame scanner — what a
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
		offs, torn := scanFrames(b)
		n := len(offs) - 1
		good := offs[n]
		if offs[0] != 0 {
			t.Fatalf("boundaries %v do not start at 0", offs)
		}
		if good > int64(len(b)) || torn != (good < int64(len(b))) {
			t.Fatalf("good %d torn %v for %d input bytes", good, torn, len(b))
		}
		if n*recordHeader > len(b) {
			t.Fatalf("%d records out of %d bytes", n, len(b))
		}
		var re []byte
		for i := 0; i < n; i++ {
			frame := b[offs[i]:offs[i+1]]
			typ, payload, size, err := parseRecord(frame)
			if err != nil || size != int64(len(frame)) {
				t.Fatalf("frame %d [%d,%d) is not one record: size %d, %v", i, offs[i], offs[i+1], size, err)
			}
			re = appendRecord(re, typ, payload)
			if int64(len(re)) != offs[i+1] {
				t.Fatalf("record %d ends at %d, boundary says %d", i, len(re), offs[i+1])
			}
		}
		if !bytes.Equal(re, b[:good]) {
			t.Fatal("the accepted records do not re-frame to the accepted bytes")
		}
		if torn {
			if _, _, _, err := parseRecord(b[good:]); err == nil {
				t.Fatal("the scan stopped in front of a frame that verifies")
			}
		}
	})
}

// FuzzLoadManifest puts arbitrary bytes where the manifest goes, beside
// the segment files of a real rolled log. The manifest is the one file
// recovery takes at its word (segments carry checksums, it does not), so
// whatever it claims — seq ranges that overflow, overlap or run
// backwards, names that are not segments, sizes that are lies — Open
// must refuse it or come up with a log that replays, point-reads and
// closes without panicking; read errors are fine.
func FuzzLoadManifest(f *testing.F) {
	src := f.TempDir()
	l, _, err := Open(src, Options{Fsync: FsyncOff, SegmentBytes: 256})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(byte(1+i%3), bytes.Repeat([]byte{byte(i)}, 20+i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := OSFS{}.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range names {
		if files[name], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			f.Fatal(err)
		}
	}
	good := files[manifestName]
	if len(names) < 4 || len(good) == 0 {
		f.Fatalf("fixture did not roll: %v", names)
	}
	first := segmentName(1)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"sealed":null,"truncated_to":18446744073709551615}`))
	f.Add([]byte(`{"sealed":[{"name":"` + first + `","first_seq":1,"last_seq":18446744073709551615,"bytes":-1}]}`))
	f.Add([]byte(`{"sealed":[{"name":"` + first + `","first_seq":9,"last_seq":3,"bytes":1}]}`))
	f.Add([]byte(`{"sealed":[{"name":"` + first + `","first_seq":1,"last_seq":2},{"name":"` + first + `","first_seq":3,"last_seq":900}]}`))
	f.Add([]byte(`{"sealed":[{"name":"../` + first + `","first_seq":1,"last_seq":4},{"name":"MANIFEST","first_seq":5,"last_seq":6}]}`))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		files[manifestName] = manifest
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, _, err := Open(dir, Options{Fsync: FsyncOff})
		if err != nil {
			return
		}
		defer l.Close()
		seqs := []uint64{0, 1, 2, l.FirstSeq(), l.FirstSeq() + 1, 40, 41, ^uint64(0)}
		_ = l.Replay(func(r Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		})
		_ = l.ReadSeqs(seqs, func(Record) error { return nil })
	})
}
