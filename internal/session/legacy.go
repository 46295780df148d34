package session

// The gob records: every WAL record this package wrote before its
// records became the SQC layouts of chunkrec.go and sessionrec.go.
// Nothing writes them any more; they are decoded so that a data
// directory from an older build (testdata/wal_v1, wal_v2) opens and
// answers unchanged. This is the one non-test file of the module that
// imports encoding/gob.
//
//	recSessionOpen   (1)  walOpen
//	recChunk         (2)  walChunk
//	recDrain         (3)  walDrain
//	recSessionClose  (4)  walClose
//	recSnapshot      (5)  walSnapshot
//
// gob matches struct fields by name, so the decoded forms keep the
// field names those builds encoded; walOpen, walDrain, walClose and
// walSnapshot are also what the SQC decoders return.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"sidq/internal/geo"
	"sidq/internal/trajectory"
)

// decodeGob decodes one legacy record payload into v.
func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// decodeLegacy decodes an open or snapshot payload into v, whose lane
// count is *lanes, and refuses the count the SQC reader would.
func decodeLegacy(payload []byte, v any, lanes *int) error {
	if err := decodeGob(payload, v); err != nil {
		return err
	}
	if err := checkLanes(*lanes); err != nil {
		return fmt.Errorf("%w: %v", errRecord, err)
	}
	return nil
}

// walEvent and walChunk are the gob DTOs of the legacy recChunk (type
// 2) record. Nothing but decodeLegacyChunk uses them.
type walEvent struct {
	Src     string
	T, X, Y float64
}

type walChunk struct {
	Session   string
	ChunkIdx  uint64
	ClientSeq uint64
	Events    []walEvent
}

// decodeLegacyChunk decodes a recChunk (type 2) payload.
func decodeLegacyChunk(payload []byte) (chunkRecord, error) {
	var c walChunk
	if err := decodeGob(payload, &c); err != nil {
		return chunkRecord{}, err
	}
	events := make([]Event, len(c.Events))
	for i, e := range c.Events {
		events[i] = Event{
			Time:  e.T,
			Value: Sample{Src: e.Src, Pt: trajectory.Point{T: e.T, Pos: geo.Pt(e.X, e.Y)}},
		}
	}
	return chunkRecord{session: c.Session, chunkIdx: c.ChunkIdx, clientSeq: c.ClientSeq, events: events}, nil
}
