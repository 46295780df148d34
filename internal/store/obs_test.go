package store

// Tests for the counters and disk-footprint gauges a log exports. They
// live in the internal package (unlike store_test.go) so they can read a
// log's counters directly where a scrape would only give deltas.

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"sidq/internal/obs"
)

// scrape renders reg and returns every unlabelled series by name.
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

func TestDiskGaugesTrackOpenLogs(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	reg := obs.NewRegistry()
	l.InstrumentTo(reg)
	m1 := scrape(t, reg)
	if s1 := m1["sidq_store_segments"]; s1 != 1 {
		t.Fatalf("fresh log segments = %v, want 1", s1)
	}
	// Roll a few segments: 8 records of ~100 bytes against a 256-byte
	// segment cap forces multiple seals.
	rec := bytes.Repeat([]byte{'x'}, 100)
	for i := 0; i < 8; i++ {
		if _, err := l.Append(1, rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	m2 := scrape(t, reg)
	if s2 := m2["sidq_store_segments"]; s2 < 3 {
		t.Fatalf("segments after rolls = %v, want >= 3", s2)
	}
	b1, b2 := m1["sidq_store_disk_bytes"], m2["sidq_store_disk_bytes"]
	if b2 <= b1 || b2 < 8*100 {
		t.Fatalf("disk bytes did not grow with appends: before=%v after=%v", b1, b2)
	}
	// The gauge must agree with the log's own Segments() accounting.
	var want float64
	for _, s := range l.Segments() {
		want += float64(s.Bytes)
	}
	if b2 != want {
		t.Fatalf("gauge bytes = %v, Segments() sum = %v", b2, want)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestInstrumentToExposesDiskGauges(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	l.InstrumentTo(reg)
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

// TestCountersArePerLog: two logs open in one process, each instrumented
// into its own registry — an idle one, and one that took 100 records and
// a retention cut. Each registry reports its own log's appends,
// segments, disk bytes and retained seq, and nothing of the other's.
func TestCountersArePerLog(t *testing.T) {
	idle, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, _, err := Open(t.TempDir(), Options{Fsync: FsyncOff, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idleReg, busyReg := obs.NewRegistry(), obs.NewRegistry()
	idle.InstrumentTo(idleReg)
	busy.InstrumentTo(busyReg)
	rec := bytes.Repeat([]byte{'x'}, 100)
	for i := 0; i < 100; i++ {
		if _, err := busy.Append(1, rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := busy.TruncateFront(busy.Segments()[2].FirstSeq); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name             string
		l                *Log
		reg              *obs.Registry
		appends, removed float64
	}{{"idle", idle, idleReg, 0, 0}, {"busy", busy, busyReg, 100, 2}} {
		segs := c.l.Segments()
		var bytes int64
		for _, s := range segs {
			bytes += s.Bytes
		}
		want := map[string]float64{
			"sidq_store_appends_total":          c.appends,
			"sidq_store_append_bytes_total":     c.appends * 100,
			"sidq_store_segments_removed_total": c.removed,
			"sidq_store_segments":               float64(len(segs)),
			"sidq_store_disk_bytes":             float64(bytes),
			"sidq_store_retained_seq":           float64(c.l.FirstSeq()),
		}
		got := scrape(t, c.reg)
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s log: %s = %v, want %v", c.name, name, got[name], v)
			}
		}
	}
	if idle.FirstSeq() == busy.FirstSeq() || len(idle.Segments()) == len(busy.Segments()) {
		t.Fatalf("the two logs do not differ where the test looks: first seqs %d and %d", idle.FirstSeq(), busy.FirstSeq())
	}
}

// TestReadCountersCountFramesActuallyRead: the read-amplification
// counters move by exactly the frames each read path touched — the
// whole spanned segments for ReadRange, the wanted frames alone for
// ReadSeqs.
func TestReadCountersCountFramesActuallyRead(t *testing.T) {
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
		r0, b0 := l.c.readRecords.Load(), l.c.readBytes.Load()
		read()
		return l.c.readRecords.Load() - r0, l.c.readBytes.Load() - b0
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
