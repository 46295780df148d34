package session

// What the external tests (package session_test, which mounts
// server.OpenService over the engine) need of the record format to
// write a legacy log and to count records by type.

const (
	RecSessionOpen   = recSessionOpen
	RecChunk         = recChunk
	RecChunk2        = recChunk2
	RecSessionOpen2  = recSessionOpen2
	RecDrain2        = recDrain2
	RecSessionClose2 = recSessionClose2
	RecSnapshot2     = recSnapshot2
)

// LegacyRecord reports whether typ is one of the gob record types this
// build reads and never writes.
func LegacyRecord(typ byte) bool { return typ >= recSessionOpen && typ <= recSnapshot }

type (
	WalOpen  = walOpen
	WalChunk = walChunk
	WalEvent = walEvent
)

// Seqs is the candidate set: the WAL seqs of the chunks Scan will read.
func (h *History) Seqs() []uint64 { return h.seqs }
