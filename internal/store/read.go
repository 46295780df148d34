package store

import (
	"fmt"
	"math"
	"path"
	"sort"
	"sync"
)

// Replay streams every durable record, in seq order, through fn. It is
// the recovery entry point: the caller rebuilds its state machine from
// the records. Stops at fn's first error. As with ReadRange,
// Record.Payload is valid only until fn returns.
func (l *Log) Replay(fn func(Record) error) error {
	l.c.replays.Add(1)
	return l.ReadRange(1, math.MaxUint64, fn)
}

// ReadRange streams records with from <= Seq <= to, in seq order,
// through fn. Sealed segments that do not overlap the range are not
// read at all — the manifest's seq ranges are the coarse index. The
// segments still being written are snapshotted under the log lock (file
// and buffers copied) so reads never observe a partially written
// record. It is the sequential path — recovery, verification, whole-log
// scans; a caller that knows which seqs it wants uses ReadSeqs.
// Record.Payload aliases the bytes read and is valid only until fn
// returns.
//
// A TruncateFront running concurrently may remove segments after the
// sealed list is copied; those segments are silently skipped, so the
// emitted seqs are still strictly ascending but may start above (or
// have an initial gap below) the log's retained floor at return time.
// Records at or above FirstSeq observed after ReadRange returns are
// always complete.
func (l *Log) ReadRange(from, to uint64, fn func(Record) error) error {
	l.mu.Lock()
	sealed := append([]SegmentInfo(nil), l.sealed...)
	wantFirst := l.liveFirstLocked()
	l.mu.Unlock()
	for _, s := range sealed {
		if err := l.emitSealed(s, from, to, fn); err != nil {
			return err
		}
	}
	data, offs, first := l.snapshotLive()
	// A seal between the sealed-list copy and the live snapshot moves
	// [wantFirst, first) into segments that are in neither: sealed too
	// late for the copy, no longer live for the snapshot. They are
	// sealed (immutable) now, so read them from the current manifest
	// before the active records — seq order is preserved because every
	// copied segment ends below wantFirst.
	if first != wantFirst {
		l.mu.Lock()
		var gap []SegmentInfo
		for _, s := range l.sealed {
			if s.FirstSeq >= wantFirst && s.LastSeq < first {
				gap = append(gap, s)
			}
		}
		l.mu.Unlock()
		for _, s := range gap {
			if err := l.emitSealed(s, from, to, fn); err != nil {
				return err
			}
		}
	}
	if first > to {
		return nil
	}
	return emitFrames(data, offs, first, from, to, fn)
}

// emitSealed reads one sealed segment, checks it against its manifest
// entry, and emits its records in [from, to]. Segments outside the range
// are not read at all.
func (l *Log) emitSealed(s SegmentInfo, from, to uint64, fn func(Record) error) error {
	if s.LastSeq < from || s.FirstSeq > to {
		return nil
	}
	f, err := l.fs.Open(path.Join(l.dir, s.Name))
	if err != nil {
		return l.sealedErr(s, "open", err)
	}
	data, offs, err := l.loadSealed(s, f)
	f.Close()
	if err != nil {
		return l.sealedErr(s, "scan", err)
	}
	return emitFrames(data, offs, s.FirstSeq, from, to, fn)
}

// loadSealed reads a sealed segment through f and checks it against its
// manifest entry. A segment that passes leaves its frame table behind for
// the point reads that follow.
func (l *Log) loadSealed(s SegmentInfo, f File) ([]byte, []int64, error) {
	data, err := readAll(f)
	if err != nil {
		return nil, nil, err
	}
	offs, err := checkSealed(s, data)
	l.c.read(len(offs)-1, offs[len(offs)-1])
	if err != nil {
		return nil, nil, err
	}
	l.rememberOffs(s, offs)
	return data, offs, nil
}

// sealedErr reports a failed read of sealed segment s — unless a
// concurrent TruncateFront dropped s from the manifest after the caller
// looked it up, in which case the segment is skipped, not an error: its
// open may fail, or its bytes may scan short or torn on filesystems where
// removal invalidates readers; either way the manifest, not the file,
// says whether it is still part of the log.
func (l *Log) sealedErr(s SegmentInfo, what string, err error) error {
	if !l.sealedListed(s.Name) {
		return nil
	}
	return fmt.Errorf("store: sealed segment %s: %s: %w", s.Name, what, err)
}

// rememberOffs keeps a verified sealed segment's frame boundaries for
// later point reads, unless the segment has been truncated away since.
func (l *Log) rememberOffs(s SegmentInfo, offs []int64) {
	l.mu.Lock()
	if cur, ok := l.sealedAtLocked(s.FirstSeq); ok && cur.Name == s.Name {
		l.sealedOffs[s.FirstSeq] = offs
	}
	l.mu.Unlock()
}

// sealedAtLocked finds the sealed segment holding seq. Caller holds
// l.mu.
func (l *Log) sealedAtLocked(seq uint64) (SegmentInfo, bool) {
	i := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].LastSeq >= seq })
	if i == len(l.sealed) || l.sealed[i].FirstSeq > seq {
		return SegmentInfo{}, false
	}
	return l.sealed[i], true
}

// sealedListed reports whether name is (still) in the sealed manifest.
func (l *Log) sealedListed(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sealed {
		if s.Name == name {
			return true
		}
	}
	return false
}

// snapshotLive copies, under the log lock, the segments still being
// written — the one on its way to being sealed, if any, then the active
// one — and returns their bytes, the verified frames in them and the
// first one's first seq. The two are contiguous in seq and each holds
// whole frames, so they scan as one.
func (l *Log) snapshotLive() (data []byte, offs []int64, first uint64) {
	l.mu.Lock()
	live := l.liveLocked()
	var size int64
	for _, sg := range live {
		size += sg.size
	}
	data = make([]byte, 0, size)
	for _, sg := range live {
		at := int64(len(data))
		data = data[:at+sg.size]
		seg := data[at:]
		// On a closed log the file is gone, and what was still in memory
		// with it; the scan below stops at any tear.
		if sg.written > 0 {
			if n, _ := sg.f.ReadAt(seg[:sg.written], 0); int64(n) != sg.written {
				data = data[:at]
				break
			}
		}
		n := int(sg.written) + copy(seg[sg.written:], sg.inflight)
		copy(seg[n:], sg.pend)
	}
	first = live[0].first
	l.mu.Unlock()
	offs, _ = scanFrames(data)
	l.c.read(len(offs)-1, offs[len(offs)-1])
	return data, offs, first
}

// emitFrames forwards the frames data[offs[i]:offs[i+1]], numbered from
// firstSeq, whose seqs fall in [from, to]. Each payload aliases data.
func emitFrames(data []byte, offs []int64, firstSeq, from, to uint64, fn func(Record) error) error {
	for i := 0; i+1 < len(offs); i++ {
		seq := firstSeq + uint64(i)
		if seq < from {
			continue
		}
		if seq > to {
			return nil
		}
		frame := data[offs[i]:offs[i+1]:offs[i+1]]
		if err := fn(Record{Seq: seq, Type: frame[recordHeader-1], Payload: frame[recordHeader:]}); err != nil {
			return err
		}
	}
	return nil
}

// ReadSeqs streams exactly the records named by seqs through fn, in
// the order given, reading only their frames: each one is located
// through its segment's frame-boundary table, fetched with one ReadAt
// into a buffer reused across records and taken from a pool for the
// call, and verified (length, CRC32C) before fn sees it.
// Record.Payload is valid only until fn returns: the buffer goes back
// to the pool when ReadSeqs does. Ascending seqs cost one file open
// per segment touched.
//
// Seqs the log does not hold — never appended, or in segments a
// TruncateFront has dropped, before or during the call — are skipped,
// as ReadRange skips them. A frame of a segment the manifest still
// lists that cannot be read or does not verify is an error, never a
// silent skip.
//
// Sealed segments are read without the log lock, which is taken only
// to look a seq up. A record of a segment still being written is
// copied under the lock — that frame alone, from the file if it has
// been written out and from the log's buffer if not, never flushing
// anything — because a seal may close the file the moment the lock is
// released.
func (l *Log) ReadSeqs(seqs []uint64, fn func(Record) error) error {
	bp := readBufs.Get().(*[]byte)
	buf := *bp
	defer func() {
		if cap(buf) <= maxPooledRead {
			*bp = buf[:0]
			readBufs.Put(bp)
		}
	}()
	for i := 0; i < len(seqs); {
		seq := seqs[i]
		l.mu.Lock()
		if seq >= l.liveFirstLocked() && seq < l.nextSeq {
			var err error
			buf, err = l.readLiveLocked(seq, buf)
			l.mu.Unlock()
			if err != nil {
				return err
			}
			rec, err := l.frameRecord(seq, buf)
			if err != nil {
				return fmt.Errorf("store: record %d in the active segment: %w", seq, err)
			}
			if err := fn(rec); err != nil {
				return err
			}
			i++
			continue
		}
		s, ok := l.sealedAtLocked(seq)
		offs := l.sealedOffs[s.FirstSeq]
		l.mu.Unlock()
		if !ok {
			i++ // truncated away, or not appended yet
			continue
		}
		j := i + 1
		for j < len(seqs) && seqs[j] >= s.FirstSeq && seqs[j] <= s.LastSeq {
			j++
		}
		var err error
		if buf, err = l.readSealed(s, offs, seqs[i:j], buf, fn); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// readBufs recycles ReadSeqs' record buffer, which is as long as the
// longest frame a call read: a history query made one per call.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRead = 1 << 20 // a record buffer one big frame grew past this is not pooled

// readLiveLocked copies the frame of seq, a record of a segment still
// being written, into buf (grown as needed). Caller holds l.mu.
func (l *Log) readLiveLocked(seq uint64, buf []byte) ([]byte, error) {
	sg := l.act
	if seq < sg.first {
		sg = l.sealing
	}
	k := seq - sg.first
	start, end := sg.offs[k], sg.offs[k+1]
	buf = sized(buf, end-start)
	if end <= sg.written {
		// On a closed log the file is gone; that is reported, not skipped.
		if n, err := sg.f.ReadAt(buf, start); n != len(buf) {
			return buf, fmt.Errorf("store: read record %d from the active segment: %w", seq, err)
		}
		return buf, nil
	}
	// Not written out yet. Buffers are swapped between whole appends, so
	// the frame lies inside one of them.
	src, at := sg.inflight, start-sg.written
	if at >= int64(len(src)) {
		src, at = sg.pend, at-int64(len(src))
	}
	copy(buf, src[at:])
	return buf, nil
}

// readSealed emits the wanted records of one sealed segment. offs is
// the segment's boundary table, nil if nobody has built it yet. Any
// failure goes through sealedErr, like emitSealed's: a segment truncated
// out from under the read is skipped, a listed one that fails is corrupt.
func (l *Log) readSealed(s SegmentInfo, offs []int64, seqs []uint64, buf []byte, fn func(Record) error) ([]byte, error) {
	fail := func(what string, err error) ([]byte, error) { return buf, l.sealedErr(s, what, err) }
	f, err := l.fs.Open(path.Join(l.dir, s.Name))
	if err != nil {
		return fail("open", err)
	}
	defer f.Close()
	if offs == nil {
		if _, offs, err = l.loadSealed(s, f); err != nil {
			return fail("scan", err)
		}
	}
	for _, seq := range seqs {
		k := seq - s.FirstSeq
		buf = sized(buf, offs[k+1]-offs[k])
		if n, err := f.ReadAt(buf, offs[k]); n != len(buf) {
			return fail(fmt.Sprintf("read record %d", seq), err)
		}
		rec, err := l.frameRecord(seq, buf)
		if err != nil {
			return fail(fmt.Sprintf("record %d", seq), err)
		}
		if err := fn(rec); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// frameRecord verifies that b is exactly one record frame and returns
// it as record seq, its payload aliasing b.
func (l *Log) frameRecord(seq uint64, b []byte) (Record, error) {
	typ, payload, size, err := parseRecord(b)
	if err != nil || size != int64(len(b)) {
		return Record{}, errTorn
	}
	l.c.read(1, size)
	return Record{Seq: seq, Type: typ, Payload: payload}, nil
}

// sized returns buf resliced to n bytes, reallocating only to grow.
func sized(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// TruncateFront drops sealed segments whose every record is below
// keepSeq — retention, not compaction: the cut is segment-granular and
// never touches the active segment. The manifest (which also records
// the new truncation horizon) is rewritten before the files are
// removed, so a crash between the two — or a failed Remove — leaves
// stale files that the next Open sweeps. The manifest commit is the
// truncation: the returned count and the removed-segments metric
// reflect the manifest, even when a subsequent Remove fails (that
// error is still returned, alongside the true count).
func (l *Log) TruncateFront(keepSeq uint64) (int, error) {
	l.ioMu.Lock() // one manifest writer at a time: a seal commits there too
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.err != nil {
		defer l.mu.Unlock()
		return 0, l.err
	}
	cut := 0
	for cut < len(l.sealed) && l.sealed[cut].LastSeq < keepSeq {
		cut++
	}
	if cut == 0 {
		l.mu.Unlock()
		return 0, nil
	}
	dropped := append([]SegmentInfo(nil), l.sealed[:cut]...)
	kept := append([]SegmentInfo(nil), l.sealed[cut:]...)
	horizon := dropped[len(dropped)-1].LastSeq + 1
	l.mu.Unlock()
	// Like every write-side disk operation, off the log mutex. Only
	// holders of ioMu change l.sealed, so kept is still right after it.
	if err := writeManifest(l.fs, l.dir, manifest{Sealed: kept, TruncatedTo: horizon}); err != nil {
		return 0, l.fail(err)
	}
	l.mu.Lock()
	l.sealed = kept
	l.truncatedTo = horizon
	for _, s := range dropped {
		delete(l.sealedOffs, s.FirstSeq)
	}
	l.mu.Unlock()
	l.c.removed.Add(uint64(len(dropped)))
	var firstErr error
	for _, s := range dropped {
		if err := l.fs.Remove(path.Join(l.dir, s.Name)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: remove %s: %w", s.Name, err)
		}
	}
	return len(dropped), firstErr
}
