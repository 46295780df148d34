package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// On-disk record framing. Every record is
//
//	u32  payload length n (little-endian)
//	u32  CRC32C over (type byte || payload)
//	u8   type
//	n    payload bytes
//
// The checksum covers the type byte so a flipped type cannot pass, and
// the length sits outside the checksum: a corrupt length either points
// past the segment end (torn tail) or frames a span whose CRC fails.
// Either way the scanner stops at the last good record, which is the
// recovery invariant — a record is durable iff its full frame verifies.
const (
	recordHeader = 9 // 4 length + 4 crc + 1 type

	// MaxRecord bounds a single record's payload. A length prefix above
	// it is treated as tail corruption rather than an allocation
	// request — a torn length field must not ask the scanner for
	// gigabytes.
	MaxRecord = 64 << 20
)

// castagnoli is the CRC32C table (iSCSI polynomial), hardware
// accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one durable log entry. Seq is assigned by the log,
// contiguous from 1; Type and Payload are the caller's.
type Record struct {
	Seq     uint64
	Type    byte
	Payload []byte
}

// appendRecord appends the framed record to buf and returns the
// extended slice.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, []byte{typ})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = typ
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// recordSize returns the framed size of a payload.
func recordSize(payload []byte) int64 { return recordHeader + int64(len(payload)) }

// errTorn marks a frame that does not verify: short header, short
// payload, oversized length, or CRC mismatch. The scanner maps it to
// "the durable log ends here".
var errTorn = errors.New("torn or corrupt record")

// parseRecord decodes one record from the front of b. It returns the
// type, payload (aliasing b), and the total frame size consumed, or
// errTorn if the frame does not verify.
func parseRecord(b []byte) (typ byte, payload []byte, size int64, err error) {
	if len(b) < recordHeader {
		return 0, nil, 0, errTorn
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxRecord {
		return 0, nil, 0, errTorn
	}
	size = recordHeader + int64(n)
	if int64(len(b)) < size {
		return 0, nil, 0, errTorn
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	typ = b[8]
	payload = b[recordHeader:size]
	crc := crc32.Update(0, castagnoli, b[8:9])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return 0, nil, 0, errTorn
	}
	return typ, payload, size, nil
}

// scanFrames walks the framed records in b front to back, stopping at
// the first frame that fails to verify. It returns the frame
// boundaries (one more than the number of verified records: record i
// is b[offs[i]:offs[i+1]]) and whether unverifiable data remained.
func scanFrames(b []byte) (offs []int64, torn bool) {
	offs = []int64{0}
	off := int64(0)
	for off < int64(len(b)) {
		_, _, size, err := parseRecord(b[off:])
		if err != nil {
			return offs, true
		}
		off += size
		offs = append(offs, off)
	}
	return offs, false
}

// segmentName renders the file name of the segment whose first record
// is seq.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%020d.wal", seq) }

// parseSegmentName extracts the first-record seq from a segment file
// name; ok is false for non-segment files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal")
	if len(num) != 20 {
		return 0, false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil || segmentName(seq) != name {
		return 0, false
	}
	return seq, true
}
