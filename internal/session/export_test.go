package session

// What the external tests (package session_test, which mounts
// server.OpenService over the engine) need of the record format to
// write a legacy log and to count records by type.

const (
	RecSessionOpen = recSessionOpen
	RecChunk       = recChunk
	RecSnapshot    = recSnapshot
	RecChunk2      = recChunk2
)

type (
	WalOpen  = walOpen
	WalChunk = walChunk
	WalEvent = walEvent
)

// Seqs is the candidate set: the WAL seqs of the chunks Scan will read.
func (h *History) Seqs() []uint64 { return h.seqs }
