package store

// Tests for the disk-footprint gauges. These live in the internal
// package (unlike store_test.go) so they can read sumLiveSegments
// directly instead of parsing a Prometheus exposition for deltas.

import (
	"bytes"
	"strings"
	"testing"

	"sidq/internal/obs"
)

func TestDiskGaugesTrackOpenLogs(t *testing.T) {
	baseBytes, baseSegs := sumLiveSegments()

	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	b1, s1 := sumLiveSegments()
	if s1-baseSegs != 1 {
		t.Fatalf("fresh log segment delta = %v, want 1", s1-baseSegs)
	}
	// Roll a few segments: 8 records of ~100 bytes against a 256-byte
	// segment cap forces multiple seals.
	rec := bytes.Repeat([]byte{'x'}, 100)
	for i := 0; i < 8; i++ {
		if _, err := l.Append(1, rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	b2, s2 := sumLiveSegments()
	if s2-baseSegs < 3 {
		t.Fatalf("segment delta after rolls = %v, want >= 3", s2-baseSegs)
	}
	if b2 <= b1 || b2-baseBytes < 8*100 {
		t.Fatalf("disk bytes did not grow with appends: before=%v after=%v", b1, b2)
	}
	// The gauge must agree with the log's own Segments() accounting.
	var want float64
	for _, s := range l.Segments() {
		want += float64(s.Bytes)
	}
	if b2-baseBytes != want {
		t.Fatalf("gauge bytes delta = %v, Segments() sum = %v", b2-baseBytes, want)
	}

	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b3, s3 := sumLiveSegments()
	if b3 != baseBytes || s3 != baseSegs {
		t.Fatalf("closed log still counted: bytes delta=%v segs delta=%v", b3-baseBytes, s3-baseSegs)
	}
	// Close is idempotent; a second Close must not double-deregister.
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestInstrumentToExposesDiskGauges(t *testing.T) {
	reg := obs.NewRegistry()
	InstrumentTo(reg)

	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("payload")); err != nil {
		t.Fatalf("append: %v", err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, fam := range []string{"sidq_store_disk_bytes", "sidq_store_segments"} {
		if !strings.Contains(expo, fam+" ") {
			t.Errorf("exposition missing %s:\n%s", fam, expo)
		}
	}
	// The scraped value must be live: this log is open with at least
	// one segment holding at least one record.
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "sidq_store_segments ") {
			if strings.TrimPrefix(line, "sidq_store_segments ") == "0" {
				t.Errorf("segments gauge is zero with an open log: %q", line)
			}
		}
	}
}

// TestReadCountersCountFramesActuallyRead: the read-amplification
// counters move by exactly the frames each read path touched — the
// whole spanned segments for ReadRange, the wanted frames alone for
// ReadSeqs.
func TestReadCountersCountFramesActuallyRead(t *testing.T) {
	InstrumentTo(obs.NewRegistry())
	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := bytes.Repeat([]byte{'x'}, 100)
	for i := 0; i < 12; i++ {
		if _, err := l.Append(1, rec); err != nil {
			t.Fatal(err)
		}
	}
	frame := uint64(recordHeader + len(rec))
	delta := func(read func()) (records, bytes uint64) {
		r0, b0 := pkgObs.readRecords.Load(), pkgObs.readBytes.Load()
		read()
		return pkgObs.readRecords.Load() - r0, pkgObs.readBytes.Load() - b0
	}
	none := func(Record) error { return nil }

	// A range inside one sealed segment reads that whole segment, and
	// ReadRange snapshots the active segment whatever the range.
	segs := l.Segments()
	seg, active := segs[1], segs[len(segs)-1]
	want := (seg.LastSeq - seg.FirstSeq + 1) + (active.LastSeq - active.FirstSeq + 1)
	if r, b := delta(func() { _ = l.ReadRange(seg.FirstSeq, seg.FirstSeq, none) }); r != want || b != want*frame {
		t.Errorf("ReadRange of one seq read %d records / %d bytes, want %d / %d", r, b, want, want*frame)
	}
	if r, b := delta(func() { _ = l.ReadSeqs([]uint64{seg.FirstSeq, seg.LastSeq + 2, 12}, none) }); r != 3 || b != 3*frame {
		t.Errorf("ReadSeqs of 3 seqs read %d records / %d bytes, want 3 / %d", r, b, 3*frame)
	}
}
