package store_test

// Point reads: ReadSeqs must return exactly what a ReadRange filtered
// to the same seqs returns, must never answer a damaged frame with
// silence, and must leave the active segment alone when nobody asked
// for a record in it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path"
	"strings"
	"sync"
	"testing"

	"sidq/internal/faults"
	"sidq/internal/store"
)

// readSeqs collects ReadSeqs' output, copying the payloads out of the
// reused read buffer.
func readSeqs(l *store.Log, seqs []uint64) ([]store.Record, error) {
	var recs []store.Record
	err := l.ReadSeqs(seqs, func(r store.Record) error {
		recs = append(recs, store.Record{Seq: r.Seq, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	return recs, err
}

func sameRecords(a, b []store.Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Type != b[i].Type || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return fmt.Errorf("record %d: seq %d type %d against seq %d type %d", i, a[i].Seq, a[i].Type, b[i].Seq, b[i].Type)
		}
	}
	return nil
}

// TestReadSeqsMatchesReadRange builds random logs across many rolls
// and asks for random subsets — including seqs below the retained floor
// and past the end — through ReadSeqs and through ReadRange-then-filter.
// Each log is read three ways: live (tables handed over at every roll),
// reopened (tables built lazily by the first read), and reopened after
// a Replay (tables taken from the replay's scans).
func TestReadSeqsMatchesReadRange(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := faults.NewCrashFS()
		opt := store.Options{FS: fs, Fsync: store.FsyncOff, SegmentBytes: int64(64 + rng.Intn(900))}
		l, _, err := store.Open("wal", opt)
		if err != nil {
			t.Fatal(err)
		}
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			if _, err := l.Append(byte(1+rng.Intn(6)), payload(rng.Intn(400))); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			if _, err := l.TruncateFront(uint64(rng.Intn(n / 2))); err != nil {
				t.Fatal(err)
			}
		}
		check := func(how string) {
			t.Helper()
			all := collect(t, l)
			for q := 0; q < 20; q++ {
				var seqs []uint64
				want := []store.Record{}
				p := rng.Float64()
				for seq := uint64(0); seq <= uint64(n)+3; seq++ {
					if rng.Float64() < p {
						seqs = append(seqs, seq)
					}
				}
				for _, seq := range seqs {
					for _, r := range all {
						if r.Seq == seq {
							want = append(want, r)
						}
					}
				}
				got, err := readSeqs(l, seqs)
				if err != nil {
					t.Fatalf("seed %d %s: ReadSeqs(%v): %v", seed, how, seqs, err)
				}
				if err := sameRecords(got, want); err != nil {
					t.Fatalf("seed %d %s: ReadSeqs(%v) differs from ReadRange: %v", seed, how, seqs, err)
				}
			}
		}
		check("live")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for _, replayFirst := range []bool{false, true} {
			if l, _, err = store.Open("wal", opt); err != nil {
				t.Fatal(err)
			}
			if replayFirst {
				collect(t, l)
			}
			// The first read after a reopen finds no table for the sealed
			// segments; ask for one record before the random subsets.
			if got, err := readSeqs(l, []uint64{uint64(n)}); err != nil || len(got) != 1 {
				t.Fatalf("seed %d: last record after reopen: %d records, %v", seed, len(got), err)
			}
			check(fmt.Sprintf("reopened replay=%v", replayFirst))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReadSeqsOrderAndRepeats: seqs are served in the order given,
// repeats included.
func TestReadSeqsOrderAndRepeats(t *testing.T) {
	l, _, _ := buildSegmented(t, 40)
	defer l.Close()
	seqs := []uint64{40, 3, 3, 17, 1, 39}
	got, err := readSeqs(l, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("%d records for %d seqs", len(got), len(seqs))
	}
	for i, r := range got {
		if r.Seq != seqs[i] || !bytes.Equal(r.Payload, payload(int(seqs[i])-1)) {
			t.Fatalf("record %d is seq %d, want %d", i, r.Seq, seqs[i])
		}
	}
}

// flipByte XORs one byte of a file in place.
func flipByte(t *testing.T, fs store.FS, name string, off int64) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.Seek(off, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b[:]); err != nil {
		t.Fatal(err)
	}
}

// TestReadSeqsCorruptFrameIsError flips every byte of a wanted frame
// in turn — in a sealed segment whose table is already built, in one
// whose table the read has to build, and in the active segment — and
// demands an error every time: a listed record that does not verify is
// never answered with a silent skip.
func TestReadSeqsCorruptFrameIsError(t *testing.T) {
	const header = 9
	for _, reopen := range []bool{false, true} {
		l, fs, segs := buildSegmented(t, 30)
		if reopen {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			var err error
			if l, _, err = store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncAlways, SegmentBytes: 256}); err != nil {
				t.Fatal(err)
			}
		}
		for _, seg := range []store.SegmentInfo{segs[1], segs[len(segs)-1]} {
			// The segment's second record: frames are header+payload, and
			// payload(i) is the record with seq i+1.
			seq := seg.FirstSeq + 1
			start := int64(header + len(payload(int(seg.FirstSeq)-1)))
			size := int64(header + len(payload(int(seq)-1)))
			name := path.Join("wal", seg.Name)
			if got, err := readSeqs(l, []uint64{seq}); err != nil || len(got) != 1 {
				t.Fatalf("reopen=%v %s: clean read: %d records, %v", reopen, seg.Name, len(got), err)
			}
			for off := start; off < start+size; off++ {
				flipByte(t, fs, name, off)
				got, err := readSeqs(l, []uint64{seq})
				if err == nil {
					t.Fatalf("reopen=%v %s: byte %d of record %d flipped, ReadSeqs returned %d records and no error", reopen, seg.Name, off-start, seq, len(got))
				}
				flipByte(t, fs, name, off)
			}
			if got, err := readSeqs(l, []uint64{seq}); err != nil || len(got) != 1 {
				t.Fatalf("reopen=%v %s: read after repair: %d records, %v", reopen, seg.Name, len(got), err)
			}
		}
		// A damaged neighbour the caller did not ask for is not its
		// problem, once the segment's table exists.
		flipByte(t, fs, path.Join("wal", segs[1].Name), 0)
		if got, err := readSeqs(l, []uint64{segs[1].FirstSeq + 1}); err != nil || len(got) != 1 {
			t.Fatalf("reopen=%v: read beside a damaged frame: %d records, %v", reopen, len(got), err)
		}
		l.Close()
	}
}

// TestReadSeqsLazyTableChecksManifestCount: the one full scan that
// builds a sealed segment's table still holds the segment to the record
// count its manifest entry promises.
func TestReadSeqsLazyTableChecksManifestCount(t *testing.T) {
	l, fs, segs := buildSegmented(t, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the last record off the second sealed segment: every remaining
	// frame verifies, only the count is wrong.
	seg := segs[1]
	name := path.Join("wal", seg.Name)
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(seg.Bytes - int64(9+len(payload(int(seg.LastSeq)-1)))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l, _, err = store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := readSeqs(l, []uint64{seg.FirstSeq}); err == nil || !strings.Contains(err.Error(), seg.Name) {
		t.Fatalf("read from a sealed segment short of its manifest count: err %v, want one naming %s", err, seg.Name)
	}
}

// activeGuardFS fails the test on any read of, or write to, the file
// it has been pointed at.
type activeGuardFS struct {
	store.FS
	t       *testing.T
	mu      sync.Mutex
	guarded string
}

func (g *activeGuardFS) guard(name string) {
	g.mu.Lock()
	g.guarded = name
	g.mu.Unlock()
}

func (g *activeGuardFS) Create(name string) (store.File, error) {
	f, err := g.FS.Create(name)
	return &guardedFile{File: f, fs: g, name: name}, err
}

func (g *activeGuardFS) Open(name string) (store.File, error) {
	f, err := g.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &guardedFile{File: f, fs: g, name: name}, nil
}

type guardedFile struct {
	store.File
	fs   *activeGuardFS
	name string
}

func (f *guardedFile) touched(op string) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.name == f.fs.guarded {
		f.fs.t.Errorf("%s on the active segment %s", op, f.name)
	}
}

func (f *guardedFile) ReadAt(p []byte, off int64) (int, error) {
	f.touched("ReadAt")
	return f.File.ReadAt(p, off)
}

func (f *guardedFile) Write(p []byte) (int, error) {
	f.touched("Write (a flush)")
	return f.File.Write(p)
}

// TestReadSeqsSealedOnlyLeavesActiveAlone: a read whose seqs all lie in
// sealed segments neither flushes nor reads the active segment, however
// much unflushed data it holds — readers of history do not stall
// appenders.
func TestReadSeqsSealedOnlyLeavesActiveAlone(t *testing.T) {
	g := &activeGuardFS{FS: faults.NewCrashFS(), t: t}
	l, _, err := store.Open("wal", store.Options{FS: g, Fsync: store.FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 60; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	active := segs[len(segs)-1]
	if active.LastSeq < active.FirstSeq {
		t.Fatal("the active segment holds no buffered record to protect")
	}
	var seqs []uint64
	for seq := uint64(1); seq < active.FirstSeq; seq += 3 {
		seqs = append(seqs, seq)
	}
	g.guard(path.Join("wal", active.Name))
	got, err := readSeqs(l, seqs)
	g.guard("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("read %d records, want %d", len(got), len(seqs))
	}
	// And a record of the active segment is still readable when asked for.
	if got, err := readSeqs(l, []uint64{active.LastSeq}); err != nil || len(got) != 1 || !bytes.Equal(got[0].Payload, payload(59)) {
		t.Fatalf("active record: %d records, %v", len(got), err)
	}
}
