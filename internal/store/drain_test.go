package store_test

// The write side keeps the disk off the log mutex: an append is a copy
// into memory, and one goroutine at a time writes, fsyncs and seals
// behind it. These tests hold the two halves of that bargain — nobody
// waits for the disk who did not ask to, and every order in which the
// disk operations can be cut short still recovers.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/store"
)

// opFS counts the operations that change what a crash would leave
// behind, and calls hook before each one, with its index.
type opFS struct {
	store.FS
	mu   sync.Mutex
	n    int
	hook func(op int, what string)
}

func (o *opFS) step(what string) {
	o.mu.Lock()
	op, hook := o.n, o.hook
	o.n++
	o.mu.Unlock()
	if hook != nil {
		hook(op, what)
	}
}

func (o *opFS) Create(name string) (store.File, error) {
	o.step("create " + name)
	f, err := o.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &opFile{File: f, fs: o, name: name}, nil
}

func (o *opFS) Open(name string) (store.File, error) {
	f, err := o.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &opFile{File: f, fs: o, name: name}, nil
}

func (o *opFS) Rename(oldname, newname string) error {
	o.step("rename " + oldname)
	return o.FS.Rename(oldname, newname)
}

func (o *opFS) Remove(name string) error {
	o.step("remove " + name)
	return o.FS.Remove(name)
}

func (o *opFS) SyncDir(dir string) error {
	o.step("syncdir")
	return o.FS.SyncDir(dir)
}

type opFile struct {
	store.File
	fs   *opFS
	name string
}

func (f *opFile) Write(p []byte) (int, error) {
	f.fs.step("write " + f.name)
	return f.File.Write(p)
}

func (f *opFile) Sync() error {
	f.fs.step("sync " + f.name)
	return f.File.Sync()
}

// TestCrashAtEveryDiskOperation cuts a rolling workload short before
// each disk operation in turn — every write, fsync, create, rename and
// directory sync of appends, seals and a truncation — and recovers the
// crash image, with and without a torn tail. Whatever the cut, the log
// opens, holds an exact prefix of what was appended, loses nothing it
// had reported durable, and goes on appending.
func TestCrashAtEveryDiskOperation(t *testing.T) {
	payloads := sweepPayloads(40)
	for _, mode := range []store.FsyncMode{store.FsyncAlways, store.FsyncOff} {
		opt := func(fs store.FS) store.Options {
			return store.Options{FS: fs, Fsync: mode, SegmentBytes: 300}
		}
		// run appends everything, truncating the front half way, and closes
		// — unless stop says the image has been taken: the process died.
		run := func(fs store.FS, opened func(*store.Log), stop func() bool) {
			l, _, err := store.Open("wal", opt(fs))
			if err != nil {
				t.Fatal(err)
			}
			opened(l)
			for i, p := range payloads {
				if stop() {
					return
				}
				if _, err := l.Append(7, p); err != nil {
					t.Fatal(err)
				}
				if i == len(payloads)/2 {
					if _, err := l.TruncateFront(uint64(i / 2)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !stop() {
				l.Close()
			}
		}
		count := &opFS{FS: faults.NewCrashFS()}
		run(count, func(*store.Log) {}, func() bool { return false })
		if count.n < 100 {
			t.Fatalf("%v: the workload made only %d disk operations", mode, count.n)
		}
		for cut := 0; cut < count.n; cut++ {
			for _, torn := range []bool{false, true} {
				mem := faults.NewCrashFS()
				fs := &opFS{FS: mem}
				var img *faults.CrashFS
				var l *store.Log // nil during Open's own operations: no record yet
				var durable uint64
				var at string
				fs.hook = func(op int, what string) {
					if op != cut {
						return
					}
					img, at = mem.Crash(int64(cut), torn), what
					if l != nil {
						durable = l.DurableSeq()
					}
				}
				run(fs, func(opened *store.Log) { l = opened }, func() bool { return img != nil })
				if img == nil {
					t.Fatalf("%v: operation %d of %d never happened", mode, cut, count.n)
				}
				where := fmt.Sprintf("%v, cut before operation %d (%s), torn=%v", mode, cut, at, torn)
				l2, info, err := store.Open("wal", opt(img))
				if err != nil {
					t.Fatalf("%s: recovery: %v", where, err)
				}
				if info.LastSeq < durable {
					t.Fatalf("%s: recovered up to seq %d, %d had been reported durable", where, info.LastSeq, durable)
				}
				next := l2.FirstSeq()
				err = l2.Replay(func(r store.Record) error {
					if r.Seq != next || r.Seq > uint64(len(payloads)) || !bytes.Equal(r.Payload, payloads[r.Seq-1]) {
						return fmt.Errorf("record %d (expected seq %d) is not what was appended", r.Seq, next)
					}
					next++
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if next != info.LastSeq+1 {
					t.Fatalf("%s: replay ended at seq %d, recovery reported %d", where, next-1, info.LastSeq)
				}
				if _, err := l2.Append(8, []byte("resume")); err != nil {
					t.Fatalf("%s: append after recovery: %v", where, err)
				}
				if err := pointReadsMatchReplay(l2); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				l2.Close()
			}
		}
	}
}

// stuckFS is a disk that stops answering: while held, every write and
// fsync of a file blocks.
type stuckFS struct {
	store.FS
	mu   sync.Mutex
	gate chan struct{} // non-nil while held; closed by release
}

func (s *stuckFS) hold() {
	s.mu.Lock()
	s.gate = make(chan struct{})
	s.mu.Unlock()
}

func (s *stuckFS) release() {
	s.mu.Lock()
	close(s.gate)
	s.gate = nil
	s.mu.Unlock()
}

func (s *stuckFS) wait() {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
}

func (s *stuckFS) Create(name string) (store.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &stuckFile{File: f, fs: s}, nil
}

type stuckFile struct {
	store.File
	fs *stuckFS
}

func (f *stuckFile) Write(p []byte) (int, error) {
	f.fs.wait()
	return f.File.Write(p)
}

func (f *stuckFile) Sync() error {
	f.fs.wait()
	return f.File.Sync()
}

// TestBatchAppendDoesNotWaitForDisk: under FsyncBatch an append is a
// copy into memory. With the disk stuck — the flusher blocked inside a
// write or an fsync — appends still return, across a segment roll, and
// every record is readable, through ReadSeqs and through ReadRange,
// before a byte of it has reached a file. When the disk comes back the
// backlog is written, the rolled segment sealed, and a reopened log
// holds everything.
func TestBatchAppendDoesNotWaitForDisk(t *testing.T) {
	fs := &stuckFS{FS: faults.NewCrashFS()}
	opt := store.Options{FS: fs, Fsync: store.FsyncBatch, SegmentBytes: 128 << 10, BatchInterval: time.Millisecond}
	l, _, err := store.Open("wal", opt)
	if err != nil {
		t.Fatal(err)
	}
	fs.hold()
	// 40 records of 4 KiB: past the flusher's wake-up mark several times
	// over, and past one segment roll — but not two: a second roll waits
	// for the first one's seal, which is the disk.
	const n = 40
	rec := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 4<<10) }
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := l.Append(1, rec(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("appends wait for a disk that is not answering")
	}
	if segs := l.Segments(); len(segs) != 2 {
		t.Fatalf("the appends crossed %d segments, the test wants one roll", len(segs))
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("seq %d reported durable while the disk is stuck", got)
	}
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	check := func(l *store.Log, when string) {
		t.Helper()
		point, err := readSeqs(l, seqs)
		if err != nil {
			t.Fatalf("%s: ReadSeqs: %v", when, err)
		}
		ranged := collect(t, l)
		if err := sameRecords(point, ranged); err != nil {
			t.Fatalf("%s: ReadSeqs against ReadRange: %v", when, err)
		}
		if len(point) != n {
			t.Fatalf("%s: read %d records, appended %d", when, len(point), n)
		}
		for i, r := range point {
			if !bytes.Equal(r.Payload, rec(i)) {
				t.Fatalf("%s: record %d is not what was appended", when, i+1)
			}
		}
	}
	check(l, "disk stuck")
	fs.release()
	deadline := time.Now().Add(10 * time.Second)
	for l.DurableSeq() != n {
		if time.Now().After(deadline) {
			t.Fatalf("disk back, but only seq %d of %d became durable", l.DurableSeq(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if segs := l.Segments(); len(segs) != 2 || segs[0].LastSeq+1 != segs[1].FirstSeq {
		t.Fatalf("segments after the seal: %+v", segs)
	}
	check(l, "disk back")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := store.Open("wal", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.LastSeq != n || info.AdoptedSegments != 0 {
		t.Fatalf("reopened: %+v, want %d records and the rolled segment already in the manifest", info, n)
	}
	check(l2, "reopened")
}
