package stream

// FNV-1a 32-bit parameters (FNV-0 offset basis and prime).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv32a hashes s with 32-bit FNV-1a, bit-identical to
// hash/fnv.New32a but with no hasher allocation and no byte-slice
// conversion — FanOut sits on the per-event ingest hot path.
func fnv32a(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// LaneFor returns the lane a key is assigned to among lanes lanes —
// the pure function FanOut partitions by, exported so a keyed session
// can record a key's lane once, when it first sees the key. lanes <= 0
// selects 1.
func LaneFor(key string, lanes int) int {
	if lanes <= 0 {
		return 0
	}
	return int(fnv32a(key) % uint32(lanes))
}

// FanOut partitions an event stream into lane sub-streams by a key
// function (typically the source sensor or trajectory id), using an
// FNV-1a hash so the lane assignment is a pure function of the key:
// the same key always lands in the same lane, in every run and at
// every lane count change of other keys. Within a lane, events keep
// their arrival order, so per-key order — the only order a keyed
// stream guarantees — is preserved exactly. lanes <= 0 selects 1.
// The serving path calls FanOutInto; this allocating form remains for
// the benchmark's shadow replay.
func FanOut[T any](events []Event[T], lanes int, key func(Event[T]) string) [][]Event[T] {
	return FanOutInto(nil, events, lanes, key)
}

// FanOutInto is FanOut into dst's lane slices: each is truncated and
// refilled, and dst grows to lanes if it is shorter. A caller that
// keeps dst between batches allocates nothing once the lanes have seen
// their largest share.
func FanOutInto[T any](dst [][]Event[T], events []Event[T], lanes int, key func(Event[T]) string) [][]Event[T] {
	if lanes <= 0 {
		lanes = 1
	}
	for len(dst) < lanes {
		dst = append(dst, nil)
	}
	dst = dst[:lanes]
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	for _, e := range events {
		l := LaneFor(key(e), lanes)
		dst[l] = append(dst[l], e)
	}
	return dst
}
