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
//	recSnapshot      (5)  walSnapshot, walResult
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

// decodeLegacyChunk decodes a recChunk (type 2) payload, its rows into
// rows.
func decodeLegacyChunk(payload []byte, rows *Chunk) (chunkCols, error) {
	var c walChunk
	if err := decodeGob(payload, &c); err != nil {
		return chunkCols{}, err
	}
	rows.Reset()
	for _, e := range c.Events {
		rows.Add(e.Src, trajectory.Point{T: e.T, Pos: geo.Pt(e.X, e.Y)})
	}
	return chunkCols{session: []byte(c.Session), chunkIdx: c.ChunkIdx, clientSeq: c.ClientSeq}, nil
}

// walResult is what a legacy recSnapshot (type 5) result has that a
// Result does not: its source by id and its edge by pointer. The rest
// decodes into walSnapshot as it is.
type walResult struct {
	Source string
	Edge   *int
}

// decodeLegacySnapshot decodes a recSnapshot (type 5) payload. Each
// result's source id is appended to SrcIDs, and the result names that
// entry: restore ranks each distinct id of SrcIDs once, in order.
func decodeLegacySnapshot(payload []byte) (walSnapshot, error) {
	var s walSnapshot
	var g struct{ Results []walResult }
	if err := decodeLegacy(payload, &s, &s.Lanes); err != nil {
		return walSnapshot{}, err
	}
	if err := decodeGob(payload, &g); err != nil {
		return walSnapshot{}, err
	}
	for i, r := range g.Results {
		s.Results[i].Src, s.Results[i].HasEdge = uint32(len(s.SrcIDs)), r.Edge != nil
		s.SrcIDs = append(s.SrcIDs, r.Source)
	}
	return s, nil
}
