package session

// The engine driven directly: what the seam makes cheap. Time is an
// argument, so eviction and the retention age floor are checked at
// made-up instants; locks are reachable, so "one busy session must not
// stall the others" is checked by holding one.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sidq/internal/faults"
	"sidq/internal/geo"
	"sidq/internal/obs"
	"sidq/internal/store"
)

// gridEvents is chunk c of a steady feed: rows per source for each of
// sources vehicles, one second apart, slow enough for the speed gate.
func gridEvents(prefix string, c, sources, rows int) *Chunk {
	var events []row
	for i := 0; i < rows; i++ {
		tm := float64(c*rows + i)
		for s := 0; s < sources; s++ {
			events = append(events, ev(fmt.Sprintf("%s%02d", prefix, s), tm, 2*tm, float64(10*s)))
		}
	}
	return chunkOf(events)
}

func openDurable(t *testing.T, d DurabilityConfig) *Engine {
	t.Helper()
	d.Dir = "wal"
	if d.FS == nil {
		d.FS = faults.NewCrashFS()
	}
	e, err := Open(Config{Durability: d})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEvictIdleDoesNotStallOtherSessions: an ingest holds its session's
// lock across a WAL append, an fsync wait and now and then a whole
// snapshot. The janitor used to wait for that lock while holding the
// table's, so for that long every call on every other session queued
// behind the table. Here one session's lock is held outright, EvictIdle
// runs into it, and an ingest on another session must still return.
func TestEvictIdleDoesNotStallOtherSessions(t *testing.T) {
	e := New(Config{})
	now := time.Now()
	busy, err := e.OpenSession(5, 20, 2, now)
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.OpenSession(5, 20, 2, now)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := e.session(busy)
	ss.mu.Lock()
	swept := make(chan int)
	go func() { swept <- e.EvictIdle(now.Add(time.Second)) }() // nothing is idle yet; it only has to look
	ingested := make(chan error, 1)
	go func() {
		// Whether the sweep has reached the held lock yet or not, this
		// must go through; give it every chance to be stuck there first.
		time.Sleep(20 * time.Millisecond)
		_, err := e.Ingest(other, gridEvents("v", 0, 2, 2), 0, now)
		ingested <- err
	}()
	select {
	case err := <-ingested:
		if err != nil {
			t.Errorf("ingest on the other session: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("an ingest on another session is stuck behind EvictIdle waiting for one busy session")
	}
	ss.mu.Unlock()
	if n := <-swept; n != 0 {
		t.Errorf("EvictIdle reclaimed %d sessions, none was idle", n)
	}
}

// TestEvictionIsAFunctionOfNow: what EvictIdle reclaims is decided by
// the instants the caller passed — to the calls that touched the
// session and to EvictIdle — and by nothing else.
func TestEvictionIsAFunctionOfNow(t *testing.T) {
	sink := &obs.MemSink{}
	reg := obs.NewRegistry()
	e := New(Config{Stream: StreamConfig{IdleTTL: time.Minute}, Metrics: reg, Trace: sink})
	t0 := time.Date(2031, 5, 1, 12, 0, 0, 0, time.UTC) // no relation to the wall clock
	idle, _ := e.OpenSession(5, 20, 2, t0)
	kept, _ := e.OpenSession(5, 20, 2, t0)
	if n := e.EvictIdle(t0.Add(time.Minute)); n != 0 {
		t.Fatalf("exactly IdleTTL after the open: evicted %d, want 0 (idle must exceed the TTL)", n)
	}
	// A drain 50 s in touches kept; idle was last touched at t0.
	if _, _, err := e.Drain(kept, false, t0.Add(50*time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := e.EvictIdle(t0.Add(61 * time.Second)); n != 1 {
		t.Fatalf("61 s after the open: evicted %d, want 1", n)
	}
	if _, err := e.Ingest(idle, gridEvents("v", 0, 1, 1), 0, t0); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("ingest into the evicted session: %v, want ErrUnknownSession", err)
	}
	if _, err := e.Ingest(kept, gridEvents("v", 0, 1, 1), 0, t0.Add(61*time.Second)); err != nil {
		t.Errorf("ingest into the kept session: %v", err)
	}
	// An instant before every touch evicts nothing, however late the
	// wall clock says it is.
	if n := e.EvictIdle(t0.Add(-time.Hour)); n != 0 {
		t.Errorf("an hour before the open: evicted %d, want 0", n)
	}
	if n := e.EvictIdle(t0.Add(2*time.Minute + 2*time.Second)); n != 1 {
		t.Errorf("past the kept session's TTL: evicted %d, want 1", n)
	}
	if got := reg.Counter(mStreamEvicted).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", mStreamEvicted, got)
	}
	if got := reg.Gauge(mStreamOpen).Value(); got != 0 || e.Sessions() != 0 {
		t.Errorf("%s = %d with %d sessions in the table, want 0 and 0", mStreamOpen, got, e.Sessions())
	}
	if sink.CountName(obs.KindSessionEvict, idle) != 1 || sink.CountName(obs.KindSessionEvict, kept) != 1 {
		t.Errorf("want one %s event per session: %+v", obs.KindSessionEvict, sink.Events())
	}
}

// TestRetentionAgeFloorIsAFunctionOfNow: the age floor follows the
// instants Retain is called with. A pass only learns "every seq up to
// here existed by now"; a later pass, more than Retain after it, may
// drop them.
func TestRetentionAgeFloorIsAFunctionOfNow(t *testing.T) {
	e := openDurable(t, DurabilityConfig{Fsync: store.FsyncOff, SnapshotEvery: 1 << 30, SegmentBytes: 512, Retain: time.Hour})
	t0 := time.Date(1999, 12, 31, 23, 0, 0, 0, time.UTC)
	id, err := e.OpenSession(0, 0, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		if _, err := e.Ingest(id, gridEvents("v", c, 2, 4), 0, t0); err != nil {
			t.Fatal(err)
		}
	}
	last := e.wal.LastSeq()
	if st := e.Retain(t0); st.AgeFloor != 1 || st.SegmentsRemoved != 0 {
		t.Fatalf("first pass: %+v, want age floor 1 and nothing removed (nothing is known to be old yet)", st)
	}
	if st := e.Retain(t0.Add(time.Hour - time.Second)); st.AgeFloor != 1 || st.SegmentsRemoved != 0 {
		t.Fatalf("a second short of Retain later: %+v, want age floor 1", st)
	}
	st := e.Retain(t0.Add(time.Hour))
	if st.AgeFloor != last+1 {
		t.Fatalf("Retain later: age floor %d, want %d (everything the first pass saw)", st.AgeFloor, last+1)
	}
	if st.Compacted != 1 || st.SegmentsRemoved == 0 || st.RetainedSeq <= 1 || st.HistoryTrimmed == 0 {
		t.Fatalf("Retain later: %+v, want the session compacted, segments dropped and the index trimmed", st)
	}
	if h := e.History(geo.RectFromCenter(geo.Pt(0, 0), 1e9, 1e9), -1e9, 1e9); h.MinSeq != st.RetainedSeq {
		t.Errorf("History.MinSeq %d, the pass retained from %d", h.MinSeq, st.RetainedSeq)
	}
}

// TestSnapshotHammerMatchesCopyingReference: the snapshot record is
// appended straight from the live session into a pooled buffer. Its
// bytes must be those of an explicit deep copy of the session encoded
// into a fresh one, at every point of a fixed history — nil and empty
// Results included — while other sessions' records go through the same
// buffer pool.
func TestSnapshotHammerMatchesCopyingReference(t *testing.T) {
	e := openDurable(t, DurabilityConfig{Fsync: store.FsyncBatch, SnapshotEvery: 1 << 30})
	check := func(ss *streamSession, when string) {
		t.Helper()
		ss.mu.Lock()
		defer ss.mu.Unlock()
		want := deepCopyLocked(ss).appendSnapshotLocked(nil)
		ss.snapshotLocked()
		var got []byte
		err := e.wal.ReadSeqs([]uint64{ss.snapSeq}, func(r store.Record) error {
			got = append(got, r.Payload...)
			return nil
		})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot record is %d bytes (err %v), the copying reference %d; they must be identical",
				when, len(got), err, len(want))
		}
	}
	history := func(prefix string) {
		id, err := e.OpenSession(2, 50, 3, time.Now())
		if err != nil {
			t.Error(err)
			return
		}
		ss, _ := e.session(id)
		ingest := func(c int) {
			if _, err := e.Ingest(id, gridEvents(prefix, c, 3, 6), 0, time.Now()); err != nil {
				t.Error(err)
			}
		}
		check(ss, "just opened (nil Results)")
		for c := 0; c < 4; c++ {
			ingest(c)
		}
		check(ss, "undrained results")
		if _, _, err := e.Drain(id, false, time.Now()); err != nil {
			t.Error(err)
		}
		check(ss, "drained (nil Results)")
		ss.mu.Lock()
		ss.results = make([]Result, 0, 8) // as a pooled slab no chunk has filled yet
		ss.mu.Unlock()
		check(ss, "empty, non-nil Results")
		ingest(4)
		check(ss, "refilled after a drain")
	}
	var wg sync.WaitGroup
	for _, prefix := range []string{"a-", "b-", "c-"} {
		wg.Add(1)
		go func(prefix string) {
			defer wg.Done()
			history(prefix)
		}(prefix)
	}
	wg.Wait()
}

// TestOpenSessionRefusesLaneCount: a lane count outside [1, MaxLanes]
// is refused where it enters the engine. Zero lanes used to be taken,
// and the session's first chunk then panicked indexing a lane of none.
func TestOpenSessionRefusesLaneCount(t *testing.T) {
	e := New(Config{})
	now := time.Now()
	for _, lanes := range []int{0, -1, MaxLanes + 1} {
		if id, err := e.OpenSession(5, 20, lanes, now); err == nil {
			t.Errorf("OpenSession with %d lanes opened %s", lanes, id)
		}
	}
	if n := e.Sessions(); n != 0 {
		t.Errorf("%d sessions open after refused opens", n)
	}
	for _, lanes := range []int{1, MaxLanes} {
		id, err := e.OpenSession(5, 20, lanes, now)
		if err != nil {
			t.Fatalf("OpenSession with %d lanes: %v", lanes, err)
		}
		if _, err := e.Ingest(id, gridEvents("v", 0, 3, 4), 0, now); err != nil {
			t.Fatalf("%d lanes: %v", lanes, err)
		}
	}
}

// TestMemoryOnlyHistoryIsEmpty: an engine without a durable log keeps no
// history, so it answers an empty one — no chunks, MinSeq 0 — whose Scan
// reads nothing. It used to dereference the log it does not have.
func TestMemoryOnlyHistoryIsEmpty(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	id, err := e.OpenSession(0, 0, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(id, gridEvents("v", 0, 2, 4), 0, t0); err != nil {
		t.Fatal(err)
	}
	h := e.History(geo.RectFromCenter(geo.Pt(0, 0), 1e9, 1e9), -1e9, 1e9)
	if h.Chunks != 0 || h.MinSeq != 0 {
		t.Fatalf("memory-only history: %d chunks, min seq %d, want an empty one", h.Chunks, h.MinSeq)
	}
	n, err := h.Scan(func([]byte, float64, float64, float64) error { return errors.New("a row from no history") })
	if n != 0 || err != nil {
		t.Fatalf("memory-only Scan: %d rows, %v", n, err)
	}
}

// TestStoreSeriesAreTheEnginesOwnLog: the sidq_store_* series in an
// engine's registry describe its own log and no other in the process. A
// memory-only engine exports none; of two durable engines side by side,
// the idle one shows none of the busy one's appends or segments.
func TestStoreSeriesAreTheEnginesOwnLog(t *testing.T) {
	mem := New(Config{})
	defer mem.Close()
	idle := openDurable(t, DurabilityConfig{Fsync: store.FsyncOff})
	busy := openDurable(t, DurabilityConfig{Fsync: store.FsyncOff, SegmentBytes: 512})
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	id, err := busy.OpenSession(0, 0, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		if _, err := busy.Ingest(id, gridEvents("v", c, 2, 4), 0, t0); err != nil {
			t.Fatal(err)
		}
	}
	series := func(e *Engine) map[string]string {
		var sb bytes.Buffer
		if err := e.cfg.Metrics.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, line := range strings.Split(sb.String(), "\n") {
			if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "sidq_store_") {
				out[name] = val
			}
		}
		return out
	}
	if got := series(mem); len(got) != 0 {
		t.Errorf("memory-only engine exports store series %v", got)
	}
	for name, e := range map[string]*Engine{"idle": idle, "busy": busy} {
		got := series(e)
		want := map[string]string{
			"sidq_store_appends_total": fmt.Sprint(e.wal.LastSeq()),
			"sidq_store_segments":      fmt.Sprint(len(e.wal.Segments())),
			"sidq_store_retained_seq":  fmt.Sprint(e.wal.FirstSeq()),
		}
		for series, v := range want {
			if got[series] != v {
				t.Errorf("%s engine: %s = %s, its log says %s", name, series, got[series], v)
			}
		}
	}
	if idle.wal.LastSeq() != 0 || len(busy.wal.Segments()) < 3 {
		t.Fatalf("the engines do not differ where the test looks: %d records idle, %d segments busy",
			idle.wal.LastSeq(), len(busy.wal.Segments()))
	}
}
