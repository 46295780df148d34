package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/store"
)

// collect replays the log into a slice.
func collect(t *testing.T, l *store.Log) []store.Record {
	t.Helper()
	var recs []store.Record
	if err := l.Replay(func(r store.Record) error {
		recs = append(recs, store.Record{Seq: r.Seq, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func payload(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{'x'}, i%97))))
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, mode := range []store.FsyncMode{store.FsyncAlways, store.FsyncBatch, store.FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			l, info, err := store.Open(t.TempDir(), store.Options{Fsync: mode, BatchInterval: time.Millisecond})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if info.Records != 0 || info.LastSeq != 0 {
				t.Fatalf("fresh log recovered %+v", info)
			}
			const n = 200
			for i := 0; i < n; i++ {
				seq, err := l.Append(byte(i%5), payload(i))
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if seq != uint64(i+1) {
					t.Fatalf("append %d: seq %d", i, seq)
				}
			}
			recs := collect(t, l)
			if len(recs) != n {
				t.Fatalf("replayed %d records, want %d", len(recs), n)
			}
			for i, r := range recs {
				if r.Seq != uint64(i+1) || r.Type != byte(i%5) || !bytes.Equal(r.Payload, payload(i)) {
					t.Fatalf("record %d mismatch: %+v", i, r)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := l.Append(1, nil); !errors.Is(err, store.ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}
		})
	}
}

func TestReopenContinuesSeq(t *testing.T) {
	dir := t.TempDir()
	l, _, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.LastSeq != 10 || info.Records != 10 || info.TornBytes != 0 {
		t.Fatalf("recovery info %+v", info)
	}
	seq, err := l2.Append(2, []byte("after"))
	if err != nil || seq != 11 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
	recs := collect(t, l2)
	if len(recs) != 11 || recs[10].Seq != 11 || string(recs[10].Payload) != "after" {
		t.Fatalf("replay after reopen: %d records", len(recs))
	}
}

func TestSegmentRollAndManifest(t *testing.T) {
	dir := t.TempDir()
	l, _, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 4 {
		t.Fatalf("expected several segments at 256-byte roll, got %d", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].FirstSeq != segs[i-1].LastSeq+1 {
			t.Fatalf("segments not contiguous: %+v", segs)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: sealed segments come from the manifest, all records
	// survive, and appends continue.
	l2, info, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.LastSeq != n {
		t.Fatalf("recovered LastSeq %d, want %d", info.LastSeq, n)
	}
	if got := len(collect(t, l2)); got != n {
		t.Fatalf("replayed %d, want %d", got, n)
	}
	// Recovery scans only the unsealed tail, not the sealed segments.
	if info.Records >= n {
		t.Fatalf("recovery scanned %d records; sealed segments should be skipped", info.Records)
	}
}

func TestReadRangeSkipsAndFilters(t *testing.T) {
	l, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncOff, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 50; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := l.ReadRange(17, 23, func(r store.Record) error {
		got = append(got, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 || got[0] != 17 || got[6] != 23 {
		t.Fatalf("ReadRange returned %v", got)
	}
}

func TestTruncateFrontRetention(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncOff, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	keep := segs[2].FirstSeq
	removed, err := l.TruncateFront(keep)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d segments, want 2", removed)
	}
	var first uint64
	if err := l.Replay(func(r store.Record) error {
		if first == 0 {
			first = r.Seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first != keep {
		t.Fatalf("replay starts at %d, want %d", first, keep)
	}
	if _, err := l.TruncateFront(keep); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Retention survives reopen.
	l2, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncOff, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	first = 0
	if err := l2.Replay(func(r store.Record) error {
		if first == 0 {
			first = r.Seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first != keep {
		t.Fatalf("after reopen replay starts at %d, want %d", first, keep)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	l, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(byte(w), []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != workers*per {
		t.Fatalf("LastSeq %d, want %d", got, workers*per)
	}
	if l.DurableSeq() != l.LastSeq() {
		t.Fatalf("durable %d != last %d under FsyncAlways", l.DurableSeq(), l.LastSeq())
	}
	recs := collect(t, l)
	if len(recs) != workers*per {
		t.Fatalf("replayed %d", len(recs))
	}
	// Per-writer record order must be preserved even under contention.
	lastPer := map[byte]int{}
	for _, r := range recs {
		var w, i int
		if _, err := fmt.Sscanf(string(r.Payload), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad payload %q", r.Payload)
		}
		if last, ok := lastPer[r.Type]; ok && i != last+1 {
			t.Fatalf("writer %d order broken: %d after %d", w, i, last)
		}
		lastPer[r.Type] = i
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncErrorPoisonsLog(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("ok")); err != nil {
		t.Fatalf("append before fault: %v", err)
	}
	fs.FailFsyncAfter(0)
	if _, err := l.Append(1, []byte("doomed")); !errors.Is(err, faults.ErrInjectedFsync) {
		t.Fatalf("append during fsync failure: %v", err)
	}
	// The failure is sticky: later appends fail too, even though the
	// write itself would succeed — the log will not lie about
	// durability after an fsync error.
	if _, err := l.Append(1, []byte("also doomed")); err == nil {
		t.Fatal("append after fsync failure succeeded")
	}
}

func TestShortWritePoisonsLog(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, bytes.Repeat([]byte{'a'}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // make the first record durable before arming the fault
		t.Fatal(err)
	}
	fs.FailWriteAfter(10, 3)
	// The bufio buffer absorbs small writes; force enough volume to hit
	// the armed budget, then expect the sticky failure.
	var sawErr bool
	for i := 0; i < 2000 && !sawErr; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{'b'}, 64)); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("short write never surfaced")
	}
	if _, err := l.Append(1, []byte("after")); err == nil {
		t.Fatal("append after short write succeeded")
	}
	// Recovery over the crashed image still yields a verifiable prefix.
	img := fs.Crash(1, false)
	l2, info, err := store.Open("wal", store.Options{FS: img, Fsync: store.FsyncOff})
	if err != nil {
		t.Fatalf("recovery after short write: %v", err)
	}
	defer l2.Close()
	if info.LastSeq < 1 {
		t.Fatalf("first record lost: %+v", info)
	}
}

func TestVerifyCleanAndTorn(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := store.Verify("wal", fs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify problems on clean log: %v", rep.Problems)
	}
	if rep.LastSeq != 40 {
		t.Fatalf("verify LastSeq %d, want 40", rep.LastSeq)
	}
	// Keep writing, then crash with a torn tail: Verify must report the
	// tear but still find the durable prefix, without modifying
	// anything.
	for i := 40; i < 50; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	img := fs.Crash(7, true)
	rep1, err := store.Verify("wal", img)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := store.Verify("wal", img)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.LastSeq != rep2.LastSeq || rep1.TornBytes != rep2.TornBytes {
		t.Fatalf("verify not read-only: %+v vs %+v", rep1, rep2)
	}
	// Recovery agrees with Verify's prediction.
	l2, info, err := store.Open("wal", store.Options{FS: img, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.LastSeq != rep1.LastSeq {
		t.Fatalf("recovery LastSeq %d, verify predicted %d", info.LastSeq, rep1.LastSeq)
	}
}

// TestConcurrentAppendRollNoDeadlock races group-commit fsyncs against
// segment rolls. Drains take the I/O mutex and then the log mutex,
// never the reverse; an appender that has to help a pending seal along
// lets go of the log mutex first. An earlier design, which sealed under
// the log mutex and fsynced under a second one, wedged every appender
// here when it took the two in both orders.
func TestConcurrentAppendRollNoDeadlock(t *testing.T) {
	for _, mode := range []store.FsyncMode{store.FsyncAlways, store.FsyncBatch} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := faults.NewCrashFS()
			l, _, err := store.Open("wal", store.Options{
				FS: fs, Fsync: mode, SegmentBytes: 64, BatchInterval: 100 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			const writers, per = 4, 150
			done := make(chan error, writers)
			for w := 0; w < writers; w++ {
				go func(w int) {
					for i := 0; i < per; i++ {
						if _, err := l.Append(1, payload(w*per+i)); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(w)
			}
			timeout := time.After(30 * time.Second)
			for w := 0; w < writers; w++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("append: %v", err)
					}
				case <-timeout:
					t.Fatal("appenders wedged: fsync vs segment-roll deadlock")
				}
			}
			if got := len(collect(t, l)); got != writers*per {
				t.Fatalf("replayed %d records, want %d", got, writers*per)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// hookFS wraps an FS and, while armed, runs fn before the next Open.
// It deterministically lands writes inside ReadRange's window between
// the sealed-list copy and the active-segment snapshot.
type hookFS struct {
	store.FS
	mu    sync.Mutex
	armed bool
	fn    func()
}

func (h *hookFS) Open(name string) (store.File, error) {
	h.mu.Lock()
	fn := h.fn
	if h.armed {
		h.armed = false
	} else {
		fn = nil
	}
	h.mu.Unlock()
	if fn != nil {
		fn()
	}
	return h.FS.Open(name)
}

// TestReadRangeSealDuringRead: a segment sealed after ReadRange copied
// the sealed list but before it snapshotted the active segment is in
// neither view; its records must still be emitted, not silently
// dropped from the range.
func TestReadRangeSealDuringRead(t *testing.T) {
	h := &hookFS{FS: faults.NewCrashFS()}
	l, _, err := store.Open("wal", store.Options{FS: h, Fsync: store.FsyncOff, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// SegmentBytes 1: each Append first seals the previous record's
	// segment, so every record gets its own segment.
	for i := 1; i <= 2; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fires when ReadRange opens the first sealed segment — after the
	// sealed-list copy: appends seal the then-active segment (record 2)
	// and record 3's, leaving record 4 active.
	h.fn = func() {
		for i := 3; i <= 4; i++ {
			if _, err := l.Append(1, payload(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.mu.Lock()
	h.armed = true
	h.mu.Unlock()
	var seqs []uint64
	if err := l.ReadRange(1, 100, func(r store.Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 {
		t.Fatalf("read %v, want seqs 1..4 (mid-read seal dropped records)", seqs)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("read %v out of order", seqs)
		}
	}
}

// TestParseFsyncMode: the -fsync parser reads back every mode's
// String, and names an unknown spelling in its error.
func TestParseFsyncMode(t *testing.T) {
	for _, m := range []store.FsyncMode{store.FsyncAlways, store.FsyncBatch, store.FsyncOff} {
		got, err := store.ParseFsyncMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseFsyncMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, s := range []string{"", "Always", "sync", "off ", store.FsyncMode(3).String()} {
		if _, err := store.ParseFsyncMode(s); err == nil || !strings.Contains(err.Error(), strconv.Quote(s)) {
			t.Errorf("ParseFsyncMode(%q) error = %v, want one quoting the spelling", s, err)
		}
	}
}
