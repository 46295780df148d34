package stream

// LaneFor returns the lane a key is assigned to among lanes lanes: its
// 32-bit FNV-1a hash, bit-identical to hash/fnv.New32a's with no hasher
// or byte slice to allocate, modulo lanes. It is the pure function
// FanOut partitions by, exported so a keyed session can resolve each
// key's lane once per batch rather than once per event. lanes <= 0
// selects 1.
func LaneFor(key string, lanes int) int {
	if lanes <= 0 {
		return 0
	}
	h := uint32(2166136261) // the FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619 // the FNV prime
	}
	return int(h % uint32(lanes))
}

// FanOut partitions an event stream into lane sub-streams by a key
// function (typically the source id): each event goes to LaneFor of
// its key, and within a lane events keep their arrival order, so
// per-key order — the only order a keyed stream guarantees — is
// preserved exactly. lanes <= 0 selects 1.
func FanOut[T any](events []Event[T], lanes int, key func(Event[T]) string) [][]Event[T] {
	if lanes <= 0 {
		lanes = 1
	}
	out := make([][]Event[T], lanes)
	for _, e := range events {
		l := LaneFor(key(e), lanes)
		out[l] = append(out[l], e)
	}
	return out
}
