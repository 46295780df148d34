package store_test

// Retention coverage: the TruncateFront crash window (manifest commit
// vs file removal), the partial-Remove accounting contract, and the
// ReadRange/Replay-vs-TruncateFront race that used to surface as
// spurious "corrupt segment" errors on live history queries.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"sidq/internal/faults"
	"sidq/internal/store"
)

// buildSegmented appends n records under fsync=always over small
// segments, returning the log, its fs, and the segment layout (sealed
// segments plus the active one last).
func buildSegmented(t *testing.T, n int) (*store.Log, *faults.CrashFS, []store.SegmentInfo) {
	t.Helper()
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	return l, fs, l.Segments()
}

// TestTruncateFrontCrashImageSweep kills the process inside the
// TruncateFront crash window at every segment-boundary cut, including
// the cut that drops every sealed segment (an empty manifest sealed
// list, where only the persisted truncated_to horizon tells recovery
// that the resurrected files are stale, not the real log prefix). The
// removes are not followed by a directory fsync, so every crash image
// resurrects the dropped files; recovery must sweep them as stale and
// resume exactly at the kept seq.
func TestTruncateFrontCrashImageSweep(t *testing.T) {
	const n = 80
	_, _, segs := buildSegmented(t, n)
	sealed := len(segs) - 1
	if sealed < 3 {
		t.Fatalf("layout too small: %d sealed segments", sealed)
	}
	for cut := 1; cut <= sealed; cut++ {
		// cut == sealed keeps only the active segment: the drop-everything
		// case.
		l, fs, _ := buildSegmented(t, n)
		keep := segs[cut].FirstSeq
		removed, err := l.TruncateFront(keep)
		if err != nil {
			t.Fatalf("cut %d: truncate: %v", cut, err)
		}
		if removed != cut {
			t.Fatalf("cut %d: removed %d segments, want %d", cut, removed, cut)
		}
		if got := l.FirstSeq(); got != keep {
			t.Fatalf("cut %d: FirstSeq %d, want %d", cut, got, keep)
		}
		for seed := int64(0); seed < 3; seed++ {
			img := fs.Crash(seed, false) // kill -9: removes were never dir-fsynced
			l2, info, err := openVerified(t, fmt.Sprintf("cut %d seed %d", cut, seed), img, store.Options{Fsync: store.FsyncAlways, SegmentBytes: 256})
			if err != nil {
				t.Fatalf("cut %d seed %d: recovery: %v", cut, seed, err)
			}
			if info.StaleFiles != cut {
				t.Fatalf("cut %d seed %d: swept %d stale files, want %d (resurrected pre-truncation segments)",
					cut, seed, info.StaleFiles, cut)
			}
			var first, last uint64
			if err := l2.Replay(func(r store.Record) error {
				if first == 0 {
					first = r.Seq
				}
				last = r.Seq
				return nil
			}); err != nil {
				t.Fatalf("cut %d seed %d: replay: %v", cut, seed, err)
			}
			if first != keep || last != n {
				t.Fatalf("cut %d seed %d: replay spans [%d,%d], want [%d,%d]", cut, seed, first, last, keep, n)
			}
			if seq, err := l2.Append(2, []byte("resume")); err != nil || seq != n+1 {
				t.Fatalf("cut %d seed %d: append after recovery: seq %d err %v", cut, seed, seq, err)
			}
			l2.Close()
		}
		l.Close()
	}
}

var errInjectedRemove = errors.New("injected remove failure")

// removeFailFS fails the next `fail` Removes, recording their names.
type removeFailFS struct {
	store.FS
	mu   sync.Mutex
	fail int
}

func (f *removeFailFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail > 0 {
		f.fail--
		return errInjectedRemove
	}
	return f.FS.Remove(name)
}

// TestTruncateFrontRemoveFailureAccounting: the manifest commit IS the
// truncation. When a Remove fails afterwards, TruncateFront must still
// report every manifest-dropped segment (the disk-usage metric feeds
// off that count), surface the error, leave the log usable, and leave
// files the next Open sweeps as stale.
func TestTruncateFrontRemoveFailureAccounting(t *testing.T) {
	inner := faults.NewCrashFS()
	ffs := &removeFailFS{FS: inner}
	l, _, err := store.Open("wal", store.Options{FS: ffs, Fsync: store.FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 4 {
		t.Fatalf("layout too small: %d segments", len(segs))
	}
	keep := segs[3].FirstSeq
	ffs.mu.Lock()
	ffs.fail = 2
	ffs.mu.Unlock()
	removed, err := l.TruncateFront(keep)
	if !errors.Is(err, errInjectedRemove) {
		t.Fatalf("truncate error %v, want the injected remove failure", err)
	}
	if removed != 3 {
		t.Fatalf("removed %d, want 3: the count must reflect the committed manifest, not the Removes", removed)
	}
	// A failed Remove is not an integrity fault: the log stays usable.
	if _, err := l.Append(2, []byte("after")); err != nil {
		t.Fatalf("append after failed remove: %v", err)
	}
	var first uint64
	if err := l.Replay(func(r store.Record) error {
		if first == 0 {
			first = r.Seq
		}
		return nil
	}); err != nil {
		t.Fatalf("replay after failed remove: %v", err)
	}
	if first != keep {
		t.Fatalf("replay starts at %d, want %d", first, keep)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The two files the injector kept on disk are below the persisted
	// truncation horizon: the next Open sweeps them.
	l2, info, err := store.Open("wal", store.Options{FS: inner, Fsync: store.FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.StaleFiles != 2 {
		t.Fatalf("swept %d stale files, want the 2 failed removes", info.StaleFiles)
	}
}

// TestTruncateReadRaceHammer races ReadRange/Replay and ReadSeqs
// against a concurrent truncator and writer. The contract under test:
// a reader must NEVER see an error because a segment it was about to
// read got truncated out from under it — dropped segments are skipped —
// and the seqs each reader observes stay strictly ascending (for
// ReadSeqs: a subsequence of the ascending seqs it asked for, with the
// payload that seq was appended with). Run under -race (make crash
// does).
func TestTruncateReadRaceHammer(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncOff, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const total = 4000
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(stop)
		for i := 0; i < total; i++ {
			if _, err := l.Append(1, payload(i)); err != nil {
				errCh <- fmt.Errorf("append %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // truncator: chase the writer, keeping a 128-seq window
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if last := l.LastSeq(); last > 128 {
				if _, err := l.TruncateFront(last - 128); err != nil {
					errCh <- fmt.Errorf("truncate: %w", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { // readers: full-log replays while segments vanish
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev uint64
				err := l.ReadRange(1, math.MaxUint64, func(rec store.Record) error {
					if rec.Seq <= prev {
						return fmt.Errorf("seq %d after %d", rec.Seq, prev)
					}
					prev = rec.Seq
					return nil
				})
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // point readers: every third seq of the last 300, across the cut
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := l.LastSeq()
				var seqs []uint64
				for seq := uint64(1); seq <= last+2; seq += 3 {
					if seq+300 > last {
						seqs = append(seqs, seq)
					}
				}
				var prev uint64
				at := 0
				err := l.ReadSeqs(seqs, func(rec store.Record) error {
					for at < len(seqs) && seqs[at] != rec.Seq {
						at++
					}
					if rec.Seq <= prev || at == len(seqs) {
						return fmt.Errorf("seq %d after %d, not an ascending pick of the asked seqs", rec.Seq, prev)
					}
					if !bytes.Equal(rec.Payload, payload(int(rec.Seq)-1)) {
						return fmt.Errorf("seq %d carries another record's payload", rec.Seq)
					}
					prev = rec.Seq
					return nil
				})
				if err != nil {
					errCh <- fmt.Errorf("point reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// The surviving window is still fully intact and contiguous.
	var prev uint64
	if err := l.Replay(func(rec store.Record) error {
		if prev != 0 && rec.Seq != prev+1 {
			return fmt.Errorf("gap: seq %d after %d", rec.Seq, prev)
		}
		prev = rec.Seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if prev != total {
		t.Fatalf("final replay ends at %d, want %d", prev, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
