package store_test

// Crash-recovery property tests. The core invariant (ISSUE 6,
// acceptance criteria): for ANY prefix truncation of the log bytes,
// recovery yields exactly the durable records — a full prefix of what
// was appended, never a partial or corrupted record.

import (
	"bytes"
	"fmt"
	"path"
	"testing"

	"sidq/internal/faults"
	"sidq/internal/store"
)

// readFSFile reads one file out of a store.FS.
func readFSFile(t *testing.T, fs store.FS, p string) []byte {
	t.Helper()
	f, err := fs.Open(p)
	if err != nil {
		t.Fatalf("open %s: %v", p, err)
	}
	defer f.Close()
	size, err := f.Seek(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
	}
	return buf
}

// writeFSFile creates one durable file in a store.FS.
func writeFSFile(t *testing.T, fs store.FS, p string, data []byte) {
	t.Helper()
	if err := fs.MkdirAll(path.Dir(p)); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(path.Dir(p)); err != nil {
		t.Fatal(err)
	}
}

// openVerified opens the log in img's "wal" the way the recovery sweeps
// do, with Verify run on both sides of the Open. Before it, Verify's plan
// must be exactly the RecoveryInfo that Open returns; after it, the
// directory must hold no stale file and no torn tail, and Verify must
// find it intact. what names the image in failures.
func openVerified(t *testing.T, what string, img store.FS, opt store.Options) (*store.Log, store.RecoveryInfo, error) {
	t.Helper()
	before, err := store.Verify("wal", img)
	if err != nil {
		t.Fatalf("%s: verify before open: %v", what, err)
	}
	opt.FS = img
	l, info, err := store.Open("wal", opt)
	if err != nil {
		return l, info, err
	}
	if before.Recovery != info || before.LastSeq != info.LastSeq || before.TornBytes != info.TornBytes {
		t.Fatalf("%s: verify planned %+v (last seq %d, %d torn bytes), open returned %+v",
			what, before.Recovery, before.LastSeq, before.TornBytes, info)
	}
	after, err := store.Verify("wal", img)
	if err != nil {
		t.Fatalf("%s: verify after open: %v", what, err)
	}
	if after.Recovery.StaleFiles != 0 || after.TornBytes != 0 || after.LastSeq != info.LastSeq || !after.OK() {
		t.Fatalf("%s: verify after open: last seq %d, plan %+v, problems %v", what, after.LastSeq, after.Recovery, after.Problems)
	}
	return l, info, nil
}

// sweepPayloads are sized to cross frame boundaries at interesting
// offsets: empty, tiny, and multi-hundred-byte records.
func sweepPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("p%03d|%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, (i*37)%251)))
	}
	return out
}

// TestRecoveryTruncationSweep cuts a written log at EVERY byte offset
// and proves recovery returns exactly the records whose frames fit the
// prefix — never a partial record, never a corrupt payload.
func TestRecoveryTruncationSweep(t *testing.T) {
	payloads := sweepPayloads(40)
	src := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: src, Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := l.Append(7, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segName := l.Segments()[0].Name
	data := readFSFile(t, src, path.Join("wal", segName))

	// frameEnds[k] = byte offset at which record k's frame ends.
	const header = 9
	var frameEnds []int
	off := 0
	for _, p := range payloads {
		off += header + len(p)
		frameEnds = append(frameEnds, off)
	}
	if off != len(data) {
		t.Fatalf("frame math: computed %d bytes, file has %d", off, len(data))
	}

	for cut := 0; cut <= len(data); cut++ {
		wantRecords := 0
		for wantRecords < len(frameEnds) && frameEnds[wantRecords] <= cut {
			wantRecords++
		}
		img := faults.NewCrashFS()
		writeFSFile(t, img, path.Join("wal", segName), data[:cut])
		l2, info, err := openVerified(t, fmt.Sprintf("cut %d", cut), img, store.Options{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if info.Records != wantRecords {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, info.Records, wantRecords)
		}
		wantTorn := int64(cut - frameEnd(frameEnds, wantRecords))
		if info.TornBytes != wantTorn {
			t.Fatalf("cut %d: torn %d bytes, want %d", cut, info.TornBytes, wantTorn)
		}
		i := 0
		err = l2.Replay(func(r store.Record) error {
			if r.Type != 7 || !bytes.Equal(r.Payload, payloads[i]) {
				return fmt.Errorf("record %d corrupt after cut %d", i, cut)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != wantRecords {
			t.Fatalf("cut %d: replay yielded %d records, want %d", cut, i, wantRecords)
		}
		// The log must accept appends after any truncation.
		if _, err := l2.Append(8, []byte("resume")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		// The frame table recovery rebuilt (and the append extended past
		// the cut) must address exactly what a fresh scan finds.
		if err := pointReadsMatchReplay(l2); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		l2.Close()
	}
}

func frameEnd(ends []int, k int) int {
	if k == 0 {
		return 0
	}
	return ends[k-1]
}

// TestRecoveryBitFlipSweep flips every byte of the log in turn; the
// flip may shorten the recovered log but the recovered records must
// always be an intact prefix of the originals.
func TestRecoveryBitFlipSweep(t *testing.T) {
	payloads := sweepPayloads(12)
	src := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: src, Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := l.Append(7, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segName := l.Segments()[0].Name
	data := readFSFile(t, src, path.Join("wal", segName))

	for flip := 0; flip < len(data); flip++ {
		mut := append([]byte(nil), data...)
		mut[flip] ^= 0x40
		img := faults.NewCrashFS()
		writeFSFile(t, img, path.Join("wal", segName), mut)
		l2, _, err := openVerified(t, fmt.Sprintf("flip %d", flip), img, store.Options{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatalf("flip %d: open: %v", flip, err)
		}
		i := 0
		err = l2.Replay(func(r store.Record) error {
			if i >= len(payloads) || r.Type != 7 || !bytes.Equal(r.Payload, payloads[i]) {
				return fmt.Errorf("flip %d surfaced a corrupt record at index %d", flip, i)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
	}
}

// TestRecoveryCrashImageSweep drives the full CrashFS model: sync up
// to a known point, keep writing unsynced, crash with a torn
// bit-flipped tail, recover. The synced prefix must always survive
// intact; nothing corrupt may ever surface.
func TestRecoveryCrashImageSweep(t *testing.T) {
	payloads := sweepPayloads(30)
	const syncedAt = 11 // records 0..10 are fsynced
	for seed := int64(0); seed < 25; seed++ {
		fs := faults.NewCrashFS()
		l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range payloads {
			if _, err := l.Append(7, p); err != nil {
				t.Fatal(err)
			}
			if i == syncedAt-1 {
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// No Close: the process dies here.
		img := fs.Crash(seed, true)
		l2, info, err := openVerified(t, fmt.Sprintf("seed %d", seed), img, store.Options{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		if info.Records < syncedAt {
			t.Fatalf("seed %d: lost fsynced records: %+v", seed, info)
		}
		i := 0
		err = l2.Replay(func(r store.Record) error {
			if i >= len(payloads) || !bytes.Equal(r.Payload, payloads[i]) {
				return fmt.Errorf("seed %d: corrupt record at %d", seed, i)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l2.Append(8, []byte("resume")); err != nil {
			t.Fatalf("seed %d: append after recovery: %v", seed, err)
		}
		if err := pointReadsMatchReplay(l2); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		l2.Close()
	}
}

// pointReadsMatchReplay reads every seq of the log back through
// ReadSeqs and compares with what Replay's sequential scan yields.
func pointReadsMatchReplay(l *store.Log) error {
	var want []store.Record
	if err := l.Replay(func(r store.Record) error {
		want = append(want, store.Record{Seq: r.Seq, Type: r.Type, Payload: bytes.Clone(r.Payload)})
		return nil
	}); err != nil {
		return err
	}
	seqs := make([]uint64, len(want))
	for i, r := range want {
		seqs[i] = r.Seq
	}
	got, err := readSeqs(l, seqs)
	if err != nil {
		return fmt.Errorf("ReadSeqs after recovery: %w", err)
	}
	if err := sameRecords(got, want); err != nil {
		return fmt.Errorf("ReadSeqs after recovery differs from Replay: %w", err)
	}
	return nil
}

// TestRecoveryAdoptsUnlistedSealedSegment models a crash that loses
// the manifest rename: segment files exist and are complete, but the
// surviving manifest predates them. Recovery must re-adopt them.
func TestRecoveryAdoptsUnlistedSealedSegment(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncAlways, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for len(l.Segments()) < 2 { // until the first seal
		if _, err := l.Append(1, []byte(fmt.Sprintf("rec-%04d", n))); err != nil {
			t.Fatal(err)
		}
		n++
	}
	oldManifest := readFSFile(t, fs, "wal/MANIFEST")
	for len(l.Segments()) < 4 { // two more seals
		if _, err := l.Append(1, []byte(fmt.Sprintf("rec-%04d", n))); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Build the post-crash hybrid: all segment files, but the manifest
	// reverted to the single-seal version.
	img := fs.Crash(0, false)
	hybrid := faults.NewCrashFS()
	names, err := img.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name == "MANIFEST" {
			writeFSFile(t, hybrid, "wal/MANIFEST", oldManifest)
			continue
		}
		writeFSFile(t, hybrid, path.Join("wal", name), readFSFile(t, img, path.Join("wal", name)))
	}
	l2, info, err := openVerified(t, "reverted manifest", hybrid, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatalf("recovery with reverted manifest: %v", err)
	}
	defer l2.Close()
	if info.AdoptedSegments != 2 {
		t.Fatalf("adopted %d segments, want 2 (info %+v)", info.AdoptedSegments, info)
	}
	i := 0
	if err := l2.Replay(func(r store.Record) error {
		if string(r.Payload) != fmt.Sprintf("rec-%04d", i) {
			return fmt.Errorf("record %d mismatch: %q", i, r.Payload)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("replayed %d records, want %d", i, n)
	}
}

// TestRecoveryDiscardsGappedSegments: a tail segment that is not
// contiguous with the durable log is unreachable and must be removed,
// not replayed out of order.
func TestRecoveryDiscardsGappedSegments(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncAlways, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for len(l.Segments()) < 3 {
		if _, err := l.Append(1, []byte(fmt.Sprintf("rec-%04d", n))); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	img := fs.Crash(0, false)
	segs := l.Segments()
	// Drop the middle sealed segment's file and the manifest, leaving
	// seg1 and seg3 with a hole between them.
	hybrid := faults.NewCrashFS()
	for _, s := range []store.SegmentInfo{segs[0], segs[2]} {
		writeFSFile(t, hybrid, path.Join("wal", s.Name), readFSFile(t, img, path.Join("wal", s.Name)))
	}
	l2, info, err := openVerified(t, "gap", hybrid, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatalf("recovery with gap: %v", err)
	}
	defer l2.Close()
	if info.DiscardedSegments != 1 {
		t.Fatalf("discarded %d segments, want 1 (info %+v)", info.DiscardedSegments, info)
	}
	last := uint64(0)
	if err := l2.Replay(func(r store.Record) error {
		if r.Seq != last+1 {
			return fmt.Errorf("replay gap: seq %d after %d", r.Seq, last)
		}
		last = r.Seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != segs[0].LastSeq {
		t.Fatalf("replay ended at %d, want %d (first segment only)", last, segs[0].LastSeq)
	}
}
