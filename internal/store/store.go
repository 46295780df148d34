// Package store is sidq's durability substrate: a segmented append-only
// log with WAL-style group-commit fsync batching, CRC32C-checksummed
// length-prefixed records, a sealed-segment manifest, and crash
// recovery that truncates a torn tail and resumes at the last durable
// record. It is stdlib-only and writes through a small FS abstraction
// so fault harnesses (internal/faults) can inject short writes, fsync
// failures, and crash images.
//
// Durability contract (see DESIGN.md "Durability & recovery"):
//
//   - A record is durable iff its full frame (length, CRC32C, type,
//     payload) verifies on disk. Recovery returns exactly the longest
//     verifiable prefix of the log — never a partial record.
//   - FsyncAlways: Append returns only after an fsync covering the
//     record. Concurrent appenders share fsyncs (group commit): while
//     one fsync is in flight, arriving appends buffer behind it and
//     are all released by the next single fsync.
//   - FsyncBatch: Append returns once the record is in the log's
//     memory buffer; a background flusher writes the buffer out as it
//     fills, seals rolled segments, and fsyncs every BatchInterval. A
//     crash can lose up to one interval of acked records — or, when
//     the disk falls behind, up to maxBacklog bytes of them, past
//     which appenders wait for it.
//   - FsyncOff: no fsyncs except at segment seal and Close. For
//     benchmarks and tests.
//   - Any write, flush, or fsync error poisons the log: the failed
//     and all subsequent Appends return the error rather than lying
//     about durability (an fsync failure leaves the page cache in an
//     unknowable state, so there is no safe retry).
//
// What a data directory holds is decided in one place, readPlan: which
// files are stale, which unlisted segments recovery re-adopts, where the
// torn tail is cut and what lies past a tear or a gap. Open applies that
// plan and Verify reports it read-only, so what Verify says Open would
// return is what Open returns. Every reader checks a sealed segment
// against its manifest entry through one function, checkSealed, and
// walks frames through one scanner, scanFrames.
//
// A Log counts its own appends, fsyncs and reads, and exports them with
// its disk gauges through InstrumentTo; the package keeps no
// process-wide state.
//
// No file I/O happens under the log mutex on the append path: Append
// copies the frame into memory and leaves; writes, fsyncs, segment
// seals and manifest commits run under a separate I/O mutex, one at a
// time, in log order (drain). What an appender or a reader waits for is
// therefore another appender's memcpy, never the disk — so how long a
// request takes does not follow the state the disk happens to be in.
package store

import (
	"errors"
	"fmt"
	"path"
	"sync"
	"time"
)

// FsyncMode selects when Append makes records durable.
type FsyncMode int

// Fsync modes.
const (
	FsyncAlways FsyncMode = iota // fsync (group-committed) before every Append returns
	FsyncBatch                   // background fsync every BatchInterval
	FsyncOff                     // no fsync except seal/close
)

// String renders the mode as its flag spelling.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode parses the -fsync flag spelling.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync mode %q (want always, batch, or off)", s)
}

// Options tunes a Log. Zero fields take the documented defaults.
type Options struct {
	FS            FS            // filesystem (default OSFS{})
	Fsync         FsyncMode     // durability mode (default FsyncAlways)
	SegmentBytes  int64         // roll the active segment past this size (default 64 MiB)
	BatchInterval time.Duration // FsyncBatch flush period (default 25ms)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = 25 * time.Millisecond
	}
	return o
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("store: log closed")

// RecoveryInfo reports what Open had to do to reach a consistent log.
type RecoveryInfo struct {
	Records           int    // records scanned in unsealed segments
	LastSeq           uint64 // highest durable seq (0 = empty log)
	TornBytes         int64  // bytes truncated off the torn tail
	AdoptedSegments   int    // sealed-but-unlisted segments re-adopted into the manifest
	DiscardedSegments int    // unreachable segments removed (past a tear or non-contiguous)
	StaleFiles        int    // leftover files removed (tmp manifest, pre-truncation segments)
}

// segment is a segment this process writes: the active one, or the one
// before it on its way to being sealed. Its bytes are, in order, what
// the file already holds, the buffer a drain is writing right now, and
// the buffer appends go to:
//
//	file[0:written) ++ inflight ++ pend == segment[0:size)
//
// Buffers are swapped between whole appends, so every boundary between
// the three is a frame boundary. All fields are guarded by Log.mu; the
// bytes of inflight are read (by the drain's write, by readers) but
// never changed while it is set.
type segment struct {
	f     File   // nil from the roll that started the segment until the seal of the one before it
	first uint64 // seq of the first record
	size  int64  // bytes appended, written or not
	// offs are the frame boundaries, for point reads (ReadSeqs): record
	// i spans bytes [offs[i], offs[i+1]). The table grows with every
	// Append and always ends at size; once the segment is sealed it is
	// handed to sealedOffs unchanged, and from then on nobody writes it.
	offs []int64

	written  int64
	inflight []byte
	pend     []byte
}

const (
	// flushAt is the backlog of unwritten bytes past which an append asks
	// for a write (FsyncBatch: of the flusher; FsyncOff: does it itself).
	flushAt = 64 << 10
	// maxBacklog is the backlog past which a FsyncBatch appender stops
	// leaving the write to the flusher and does it itself — the
	// backpressure that bounds the log's memory when the disk falls behind.
	maxBacklog = 4 << 20
)

// Log is a segmented append-only record log. All methods are safe for
// concurrent use.
type Log struct {
	dir string
	opt Options
	fs  FS

	// ioMu serializes everything that touches the disk on the write
	// side: buffer writes, fsyncs, segment seals, manifest commits.
	// Lock order is ioMu -> mu; mu is never held across that I/O.
	ioMu sync.Mutex

	mu          sync.Mutex // guards the fields below
	act         *segment   // the active segment
	sealing     *segment   // the segment before it, rolled but not yet in the manifest; nil most of the time
	nextSeq     uint64
	sealed      []SegmentInfo // exactly what the manifest lists
	truncatedTo uint64        // retention horizon persisted in the manifest (0 = never truncated)
	err         error         // sticky failure; all appends fail after it
	spare       [][]byte      // emptied write buffers, for the next swap

	// A sealed segment's frame boundaries, by its FirstSeq. A segment
	// sealed before this process opened the log has no table until a
	// scan of it (Replay, ReadRange, or the first ReadSeqs that touches
	// it) provides one; TruncateFront drops tables with their segments.
	sealedOffs map[uint64][]int64

	sc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		durable uint64 // highest seq known fsynced
		syncing bool   // an fsync is in flight (group-commit gate)
		err     error  // sticky failure, mirrored for waiters
	}

	c         counters
	recovered RecoveryInfo // what Open's recovery did; never changes after

	kick      chan struct{} // FsyncBatch: wakes the flusher before its next tick
	batchStop chan struct{}
	batchDone chan struct{}
	closeOnce sync.Once
}

// Open opens (creating if needed) the log in dir and runs crash
// recovery: stale files are removed, sealed-but-unlisted segments are
// re-adopted, the torn tail is truncated to the last verifiable
// record, and the active segment is reopened for append.
func Open(dir string, opt Options) (*Log, RecoveryInfo, error) {
	opt = opt.withDefaults()
	l := &Log{dir: dir, opt: opt, fs: opt.FS, sealedOffs: map[uint64][]int64{}}
	l.sc.cond = sync.NewCond(&l.sc.mu)
	info, err := l.recover()
	if err != nil {
		return nil, info, err
	}
	l.recovered = info
	if opt.Fsync == FsyncBatch {
		l.kick = make(chan struct{}, 1)
		l.batchStop = make(chan struct{})
		l.batchDone = make(chan struct{})
		go l.batchLoop()
	}
	return l, info, nil
}

// recover applies the directory's plan: it refuses a directory whose
// manifest lists a segment that is gone, then removes stale and
// unreachable files, re-adopts the sealed-but-unlisted segments into the
// manifest, and cuts the active segment back to its verified frames.
// Those last two are made durable before Open returns, so a truncation
// cannot reappear after the next crash.
func (l *Log) recover() (RecoveryInfo, error) {
	fs := l.fs
	if err := fs.MkdirAll(l.dir); err != nil {
		return RecoveryInfo{}, fmt.Errorf("store: mkdir %s: %w", l.dir, err)
	}
	p, err := readPlan(fs, l.dir)
	if err != nil {
		return RecoveryInfo{}, fmt.Errorf("store: %w", err)
	}
	if len(p.missing) > 0 {
		return p.info, fmt.Errorf("store: sealed segment %s missing from %s", p.missing[0], l.dir)
	}
	for _, name := range p.stale {
		if err := fs.Remove(path.Join(l.dir, name)); err != nil {
			return p.info, fmt.Errorf("store: remove stale %s: %w", name, err)
		}
	}
	l.sealed = p.m.Sealed
	l.truncatedTo = p.m.TruncatedTo
	l.nextSeq = p.info.LastSeq + 1
	act := &tailSegment{first: l.nextSeq, offs: []int64{0}}
	for i := range p.tail {
		t := &p.tail[i]
		switch t.role {
		case adopted:
			l.sealed = append(l.sealed, SegmentInfo{
				Name: t.name, FirstSeq: t.first, LastSeq: t.first + uint64(t.records()) - 1, Bytes: t.size,
			})
			l.sealedOffs[t.first] = t.offs
		case active:
			act = t
		default:
			if err := fs.Remove(path.Join(l.dir, t.name)); err != nil {
				return p.info, fmt.Errorf("store: remove unreachable %s: %w", t.name, err)
			}
		}
	}
	if p.info.AdoptedSegments > 0 {
		if err := writeManifest(fs, l.dir, manifest{Sealed: l.sealed, TruncatedTo: l.truncatedTo}); err != nil {
			return p.info, fmt.Errorf("store: %w", err)
		}
	}

	// Reopen (or create) the active segment.
	l.act = &segment{first: act.first, offs: act.offs}
	name := segmentName(act.first)
	if act.name != "" {
		f, err := fs.Open(path.Join(l.dir, name))
		if err != nil {
			return p.info, fmt.Errorf("store: reopen %s: %w", name, err)
		}
		good := act.good()
		if err := f.Truncate(good); err != nil {
			f.Close()
			return p.info, fmt.Errorf("store: truncate %s: %w", name, err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return p.info, fmt.Errorf("store: seek %s: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return p.info, fmt.Errorf("store: sync %s: %w", name, err)
		}
		l.act.f = f
		l.act.size, l.act.written = good, good
	} else {
		f, err := fs.Create(path.Join(l.dir, name))
		if err != nil {
			return p.info, fmt.Errorf("store: create %s: %w", name, err)
		}
		if err := fs.SyncDir(l.dir); err != nil {
			f.Close()
			return p.info, fmt.Errorf("store: sync dir: %w", err)
		}
		l.act.f = f
	}
	l.sc.durable = l.nextSeq - 1
	return p.info, nil
}

// Append writes one record and returns its seq. Under FsyncAlways the
// record is durable when Append returns; under FsyncBatch/FsyncOff it
// is buffered (see the package contract).
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	if int64(len(payload)) > MaxRecord {
		return 0, fmt.Errorf("store: record payload %d exceeds max %d", len(payload), int64(MaxRecord))
	}
	l.mu.Lock()
	for {
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return 0, err
		}
		sg := l.act
		if sg.size < l.opt.SegmentBytes {
			break
		}
		if l.sealing == nil {
			l.rollLocked()
			break
		}
		// The segment before this one is still on its way into the
		// manifest. Finish that rather than queue a second one behind it.
		l.mu.Unlock()
		if _, err := l.drain(false); err != nil {
			return 0, err
		}
		l.mu.Lock()
	}
	sg := l.act
	seq := l.nextSeq
	sg.pend = appendRecord(reserve(sg.pend, recordSize(payload)), typ, payload)
	l.nextSeq++
	sg.size += recordSize(payload)
	sg.offs = append(sg.offs, sg.size)
	backlog := len(sg.pend)
	if l.sealing != nil {
		backlog += flushAt // a rolled segment waits to be sealed: as good as a full buffer
	}
	l.mu.Unlock()
	l.c.appends.Add(1)
	l.c.appendBytes.Add(uint64(len(payload)))
	switch l.opt.Fsync {
	case FsyncAlways:
		if err := l.waitDurable(seq); err != nil {
			return 0, err
		}
	case FsyncBatch:
		if backlog >= maxBacklog {
			if _, err := l.drain(false); err != nil {
				return 0, err
			}
		} else if backlog >= flushAt {
			select {
			case l.kick <- struct{}{}:
			default:
			}
		}
	case FsyncOff:
		if backlog >= flushAt {
			if _, err := l.drain(false); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// rollLocked starts the next segment: the active one becomes l.sealing,
// with whatever it still holds in memory, and an empty one takes its
// place. Nothing touches the disk here — the next drain seals the old
// segment and creates the new one's file. Caller holds l.mu and has
// checked l.sealing == nil.
func (l *Log) rollLocked() {
	l.sealing = l.act
	l.act = &segment{first: l.nextSeq, offs: []int64{0}, pend: l.takeSpareLocked()}
}

func (l *Log) takeSpareLocked() []byte {
	if n := len(l.spare); n > 0 {
		b := l.spare[n-1]
		l.spare = l.spare[:n-1]
		return b
	}
	return nil
}

// reserve returns b with room for n more bytes. A buffer that must
// grow past flushAt, one its flusher has fallen behind on, grows at once
// to maxBacklog+flushAt: a batch appender writes its buffer out itself
// once it holds maxBacklog, so no buffer needs more between writes, and
// wroteLocked keeps one of that size for the next cycle. append's own
// steps would overshoot it, and the buffer be dropped after every
// write.
func reserve(b []byte, n int64) []byte {
	const most = maxBacklog + flushAt
	need := int64(len(b)) + n
	if need <= int64(cap(b)) || need <= flushAt || need > most {
		return b
	}
	return append(make([]byte, 0, most), b...)
}

// wroteLocked records that sg's inflight buffer reached the file, and
// keeps the buffer for reuse unless one huge record blew it up. Caller
// holds l.mu and l.ioMu.
func (l *Log) wroteLocked(sg *segment) {
	sg.written += int64(len(sg.inflight))
	if b := sg.inflight; b != nil && cap(b) <= maxBacklog+flushAt && len(l.spare) < 4 {
		l.spare = append(l.spare, b[:0])
	}
	sg.inflight = nil
}

// waitDurable blocks until seq is covered by an fsync, sharing in-
// flight fsyncs between waiters (group commit): the first waiter to
// find no fsync running becomes the syncer; everyone else rides its
// broadcast, and anyone whose record missed the flush cut starts the
// next round.
func (l *Log) waitDurable(seq uint64) error {
	sc := &l.sc
	sc.mu.Lock()
	for {
		if sc.err != nil {
			err := sc.err
			sc.mu.Unlock()
			return err
		}
		if sc.durable >= seq {
			sc.mu.Unlock()
			return nil
		}
		if sc.syncing {
			sc.cond.Wait()
			continue
		}
		sc.syncing = true
		sc.mu.Unlock()
		hi, err := l.drain(true)
		sc.mu.Lock()
		sc.syncing = false
		if err != nil {
			sc.err = err
		} else if hi > sc.durable {
			sc.durable = hi
		}
		sc.cond.Broadcast()
	}
}

// drain is the one place the write side touches the disk. It takes
// everything appended so far — a rolled segment waiting to be sealed,
// then the active segment's buffer — and in that order writes it out,
// seals, and with fsync set fsyncs the active segment. It returns the
// highest seq it covered: written, and with fsync also durable. The log
// mutex is held only to swap buffers and to publish results, so
// appenders keep appending (into the next buffer) while the disk works
// — that is what makes group commit group.
func (l *Log) drain(fsync bool) (uint64, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	// One cut for both segments: a roll after it only adds records past hi.
	old, sg, hi := l.sealing, l.act, l.nextSeq-1
	var oldBuf []byte
	if old != nil {
		oldBuf = old.pend // its last: nothing is appended to a rolled segment
		old.inflight, old.pend = old.pend, nil
	}
	buf := sg.pend
	sg.inflight, sg.pend = sg.pend, l.takeSpareLocked()
	l.mu.Unlock()

	if old != nil {
		if err := l.seal(old, oldBuf, sg); err != nil {
			return 0, l.fail(err)
		}
	}
	if len(buf) > 0 {
		if _, err := sg.f.Write(buf); err != nil {
			return 0, l.fail(err)
		}
	}
	l.mu.Lock()
	l.wroteLocked(sg)
	l.mu.Unlock()
	if fsync {
		start := time.Now()
		err := sg.f.Sync()
		l.c.fsync(time.Since(start), err)
		if err != nil {
			return 0, l.fail(err)
		}
	}
	return hi, nil
}

// seal makes a rolled segment a sealed one, and gives next, the
// segment that replaced it, its file. In order: old's last bytes
// written and the file fsynced; next's file created — only now, so a
// segment file never exists beside an earlier one that could be torn;
// the manifest rewritten to list old, whose directory sync makes next's
// creation durable too; and only then the in-memory list extended, so
// l.sealed never runs ahead of the manifest. Until that moment readers
// find old under l.sealing, file and buffers. Caller holds l.ioMu,
// which also keeps TruncateFront's manifest commit out.
func (l *Log) seal(old *segment, tail []byte, next *segment) error {
	if len(tail) > 0 {
		if _, err := old.f.Write(tail); err != nil {
			return err
		}
	}
	if err := old.f.Sync(); err != nil {
		return err
	}
	f, err := l.fs.Create(path.Join(l.dir, segmentName(next.first)))
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.wroteLocked(old)
	next.f = f
	info := SegmentInfo{
		Name:     segmentName(old.first),
		FirstSeq: old.first,
		LastSeq:  next.first - 1,
		Bytes:    old.size,
	}
	m := manifest{Sealed: append(append([]SegmentInfo(nil), l.sealed...), info), TruncatedTo: l.truncatedTo}
	l.mu.Unlock()
	if err := writeManifest(l.fs, l.dir, m); err != nil {
		return err
	}
	l.mu.Lock()
	l.sealed = m.Sealed
	l.sealedOffs[info.FirstSeq] = old.offs
	l.sealing = nil
	l.mu.Unlock()
	// Readers reach old.f only through l.sealing, under l.mu: none can
	// hold it any more.
	if err := old.f.Close(); err != nil {
		return err
	}
	l.markDurable(info.LastSeq)
	l.c.seals.Add(1)
	return nil
}

// Sync forces all buffered records durable regardless of mode.
func (l *Log) Sync() error {
	hi, err := l.drain(true)
	if err != nil {
		return err
	}
	l.markDurable(hi)
	return nil
}

func (l *Log) markDurable(hi uint64) {
	sc := &l.sc
	sc.mu.Lock()
	if hi > sc.durable {
		sc.durable = hi
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// failLocked poisons the log (caller holds l.mu).
func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("store: log failed: %w", err)
	}
	err = l.err
	sc := &l.sc
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// fail poisons the log and returns the sticky error.
func (l *Log) fail(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failLocked(err)
	return l.err
}

// batchLoop is the FsyncBatch background flusher: it writes the buffer
// out and seals rolled segments when an appender says there is enough
// to do, and fsyncs on every tick that finds something not yet durable.
func (l *Log) batchLoop() {
	defer close(l.batchDone)
	t := time.NewTicker(l.opt.BatchInterval)
	defer t.Stop()
	for {
		// A failure in either poisons the log; nothing more to do here.
		select {
		case <-l.batchStop:
			return
		case <-l.kick:
			_, _ = l.drain(false)
		case <-t.C:
			if l.LastSeq() > l.DurableSeq() {
				_ = l.Sync()
			}
		}
	}
}

// Close flushes, fsyncs, and closes the log. Further appends return
// ErrClosed. Idempotent. Returns an error only for a failure that
// happens during Close itself: a log already poisoned by an earlier
// write/fsync error closes "cleanly" — that error was delivered to
// the operation that hit it, and surfacing it again here would make
// every shutdown look like a fresh failure.
func (l *Log) Close() error {
	var err error
	l.closeOnce.Do(func() {
		if l.batchStop != nil {
			close(l.batchStop)
			<-l.batchDone
		}
		l.mu.Lock()
		poisoned := l.err != nil
		l.mu.Unlock()
		_, serr := l.drain(true) // clean-shutdown durability, any mode
		l.ioMu.Lock()
		l.mu.Lock()
		for _, sg := range l.liveLocked() { // more than one, or one without a file, only on a poisoned log
			if sg.f == nil {
				continue
			}
			if cerr := sg.f.Close(); serr == nil {
				serr = cerr
			}
		}
		if poisoned {
			serr = nil
		}
		if l.err == nil {
			l.err = ErrClosed
		}
		sc := &l.sc
		sc.mu.Lock()
		if sc.err == nil {
			sc.err = ErrClosed
		}
		sc.cond.Broadcast()
		sc.mu.Unlock()
		l.mu.Unlock()
		l.ioMu.Unlock()
		err = serr
	})
	return err
}

// LastSeq returns the highest appended seq (0 = empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// liveLocked lists the segments this process is still writing, oldest
// first: the one being sealed, if any, and the active one. Caller holds
// l.mu.
func (l *Log) liveLocked() []*segment {
	if l.sealing != nil {
		return []*segment{l.sealing, l.act}
	}
	return []*segment{l.act}
}

// liveFirstLocked is the first seq not in a sealed segment. Caller
// holds l.mu.
func (l *Log) liveFirstLocked() uint64 {
	if l.sealing != nil {
		return l.sealing.first
	}
	return l.act.first
}

// FirstSeq returns the lowest seq still present in the log — the
// retained floor after truncation. A never-truncated log reports 1;
// an empty log reports the seq the next Append will be assigned.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sealed) > 0 {
		return l.sealed[0].FirstSeq
	}
	return l.liveFirstLocked()
}

// DurableSeq returns the highest seq known covered by an fsync.
func (l *Log) DurableSeq() uint64 {
	l.sc.mu.Lock()
	defer l.sc.mu.Unlock()
	return l.sc.durable
}

// Segments returns the sealed segments plus the ones still being
// written (the active one, and before it one on its way to being
// sealed, if any), in seq order. The Bytes of those include buffered-
// but-unflushed data.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]SegmentInfo(nil), l.sealed...)
	live := l.liveLocked()
	for i, sg := range live {
		last := l.nextSeq - 1
		if i+1 < len(live) {
			last = live[i+1].first - 1
		}
		out = append(out, SegmentInfo{Name: segmentName(sg.first), FirstSeq: sg.first, LastSeq: last, Bytes: sg.size})
	}
	return out
}
