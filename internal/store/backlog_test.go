package store

// The write buffers a batch log keeps between backlog cycles.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sidq/internal/israce"
)

// TestBatchBacklogCyclesReuseTheirBuffers: a FsyncBatch appender that
// never yields, on one P, keeps the flusher from running, so it fills
// its pending buffer to maxBacklog and writes it out itself, cycle
// after cycle. The first cycle makes the buffer it fills and the second
// the one it fills while the first is written out; from then on the
// two alternate and a cycle allocates no buffer: at most 1 kB an append
// of a chunk-sized record, collections held off. A buffer grown by
// append past maxBacklog+flushAt used to be dropped after its write, so
// every cycle grew one again: 25–32 kB an append here.
func TestBatchBacklogCyclesReuseTheirBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 6800) // a 256-row, 16-source chunk record
	cycle := maxBacklog/recordSize(payload) + 1
	appendCycles := func(n int64) {
		for i := int64(0); i < n*cycle; i++ {
			if _, err := l.Append(1, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendCycles(2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendCycles(4)
	runtime.ReadMemStats(&after)
	perAppend := (after.TotalAlloc - before.TotalAlloc) / uint64(4*cycle)
	t.Logf("%d bytes allocated per append over 4 backlog cycles", perAppend)
	if perAppend > 1<<10 && !israce.Enabled {
		t.Errorf("a backlog cycle allocates %d bytes per append once warm, want at most 1 kB", perAppend)
	}
}
