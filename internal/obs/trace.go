package obs

import (
	"sync"
	"time"
)

// TraceEvent is one structured execution event emitted by an
// instrumented component — coarse-grained spans (a stage run) and the
// decisions around them (a panic recovery, a skip). It is
// a flat value, not a tree: sidq pipelines are shallow enough that the
// (Name, Kind) pair plus ordering reconstructs the story, and a flat
// struct keeps emission allocation-free apart from the sink's own
// bookkeeping.
type TraceEvent struct {
	Name string        // subject, e.g. the stage name
	Kind string        // event kind: "stage", "panic", "skip", "session-open", ...
	Dur  time.Duration // span duration (zero for point events)
	N    int           // kind-specific count: events pending, records replayed, ...
	Err  string        // error text, "" on success
}

// Trace event kinds emitted by the core runner.
const (
	KindStage = "stage" // one stage completed (Dur = wall time)
	KindPanic = "panic" // the stage panicked and was recovered
	KindSkip  = "skip"  // the stage failed and its work was discarded
)

// Trace event kinds emitted by the server's streaming-session
// registry (Name = session id).
const (
	KindSessionOpen  = "session-open"  // a streaming session was created
	KindSessionClose = "session-close" // closed by the client (N = events emitted)
	KindSessionEvict = "session-evict" // reclaimed by the idle-TTL janitor (N = events still pending)
	KindSessionShed  = "session-shed"  // an open or chunk rejected with 429 (Err = reason)
)

// Trace event kinds emitted by the durability layer (server WAL).
const (
	KindSessionSnapshot = "session-snapshot" // state checkpointed into the WAL (N = events pending)
	KindSessionRestore  = "session-restore"  // rebuilt from a WAL snapshot (N = chunks folded in)
	KindWALReplay       = "wal-replay"       // recovery replay finished (Dur = wall time, N = records)
	KindSessionCompact  = "session-compact"  // retention force-snapshotted a lagging session (N = chunks folded)
	KindRetention       = "retention"        // a retention pass truncated the WAL (N = segments removed)
)

// TraceSink receives trace events. Implementations must be safe for
// concurrent use: one sink serves every request goroutine of a
// service, and pipeline runs on different goroutines may share one.
type TraceSink interface {
	Record(ev TraceEvent)
}

// FuncSink adapts a function to a TraceSink. The function must be
// safe for concurrent use.
type FuncSink func(TraceEvent)

// Record implements TraceSink.
func (f FuncSink) Record(ev TraceEvent) { f(ev) }

// MemSink is a TraceSink that collects every event in memory — the
// assertion surface for tests and chaos scenarios ("exactly one skip
// was recorded"). Safe for concurrent use.
type MemSink struct {
	mu  sync.Mutex
	evs []TraceEvent
}

// Record implements TraceSink.
func (m *MemSink) Record(ev TraceEvent) {
	m.mu.Lock()
	m.evs = append(m.evs, ev)
	m.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (m *MemSink) Events() []TraceEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TraceEvent(nil), m.evs...)
}

// Count returns the number of recorded events of the given kind.
func (m *MemSink) Count(kind string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ev := range m.evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// CountName returns the number of recorded events of the given kind
// for the given subject name.
func (m *MemSink) CountName(kind, name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ev := range m.evs {
		if ev.Kind == kind && ev.Name == name {
			n++
		}
	}
	return n
}

// Reset discards all recorded events.
func (m *MemSink) Reset() {
	m.mu.Lock()
	m.evs = nil
	m.mu.Unlock()
}
