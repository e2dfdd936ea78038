package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/graph"
)

// WAL format v1. A per-graph WAL file is a 20-byte header followed by
// length-prefixed, checksummed records:
//
//	header: magic "NJWL" (4) · version u16 · flags u16 · baseGen u64 · CRC32-C of bytes [0,16) (4)
//	record: bodyLen u32 · CRC32-C(body) u32 · body
//
// baseGen names the snapshot generation the records apply over; a WAL whose
// baseGen does not match the recovered snapshot (e.g. the snapshot it
// belonged to was just written but the WAL reset didn't land before a crash)
// is discarded whole — its edits are either already folded into the snapshot
// or belong to a generation that no longer exists.
//
// A v1 record body is one atomic edit batch:
//
//	u8 op (1 = edits)
//	u32 nAdds · nAdds × (u32 u · u32 v · f64 w)
//	u32 nDels · nDels × (u32 u · u32 v)
//
// The CRC covers the whole body, so an edit batch replays all-or-nothing:
// recovery can never surface half of one request's edits.
const (
	walOpEdits = 1

	// maxWALRecord bounds one record body; larger length prefixes are treated
	// as corruption (a torn length field would otherwise ask recovery to
	// allocate garbage gigabytes).
	maxWALRecord = 64 << 20
)

// encodeWALHeader builds the 20-byte WAL header for a base generation.
func encodeWALHeader(baseGen uint64) []byte {
	h := make([]byte, walHeaderLen)
	copy(h[0:4], walMagic)
	binary.LittleEndian.PutUint16(h[4:6], walVersion)
	binary.LittleEndian.PutUint16(h[6:8], 0)
	binary.LittleEndian.PutUint64(h[8:16], baseGen)
	binary.LittleEndian.PutUint32(h[16:20], crc32.Checksum(h[:16], castagnoli))
	return h
}

// parseWALHeader validates a WAL header and returns its base generation.
func parseWALHeader(h []byte) (baseGen uint64, err error) {
	if len(h) < walHeaderLen {
		return 0, fmt.Errorf("%w: truncated wal header (%d bytes)", ErrCorruptSegment, len(h))
	}
	if binary.LittleEndian.Uint32(h[16:20]) != crc32.Checksum(h[:16], castagnoli) {
		return 0, fmt.Errorf("%w: wal header checksum mismatch", ErrCorruptSegment)
	}
	if string(h[0:4]) != walMagic {
		return 0, fmt.Errorf("%w: bad wal magic %q", ErrIncompatibleSegment, h[0:4])
	}
	if v := binary.LittleEndian.Uint16(h[4:6]); v != walVersion {
		return 0, fmt.Errorf("%w: wal version %d, this build reads v%d", ErrIncompatibleSegment, v, walVersion)
	}
	return binary.LittleEndian.Uint64(h[8:16]), nil
}

// walBodyLen is the encoded body size of one edit batch.
func walBodyLen(adds []graph.Edge, dels [][2]graph.NodeID) int {
	return 1 + 4 + 16*len(adds) + 4 + 8*len(dels)
}

// encodeWALRecord frames one edit batch as a length-prefixed checksummed
// record.
func encodeWALRecord(adds []graph.Edge, dels [][2]graph.NodeID) []byte {
	body := make([]byte, 0, walBodyLen(adds, dels))
	body = append(body, walOpEdits)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(adds)))
	for _, e := range adds {
		body = binary.LittleEndian.AppendUint32(body, uint32(e.U))
		body = binary.LittleEndian.AppendUint32(body, uint32(e.V))
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(e.W))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(dels)))
	for _, d := range dels {
		body = binary.LittleEndian.AppendUint32(body, uint32(d[0]))
		body = binary.LittleEndian.AppendUint32(body, uint32(d[1]))
	}
	rec := make([]byte, 0, 8+len(body))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(body, castagnoli))
	return append(rec, body...)
}

// walRecord is one decoded edit batch.
type walRecord struct {
	adds []graph.Edge
	dels [][2]graph.NodeID
}

// decodeWALBody parses a checksum-verified record body.
func decodeWALBody(body []byte) (walRecord, error) {
	var r walRecord
	d := &decoder{b: body}
	if op := d.u8(); d.err == nil && op != walOpEdits {
		return r, fmt.Errorf("unknown wal op %d", op)
	}
	nAdds := d.u32()
	if d.err == nil && int(nAdds) > len(body)/16+1 {
		return r, fmt.Errorf("implausible add count %d", nAdds)
	}
	for i := uint32(0); i < nAdds && d.err == nil; i++ {
		u := graph.NodeID(d.u32())
		v := graph.NodeID(d.u32())
		w := math.Float64frombits(d.u64())
		r.adds = append(r.adds, graph.Edge{U: u, V: v, W: w})
	}
	nDels := d.u32()
	if d.err == nil && int(nDels) > len(body)/8+1 {
		return r, fmt.Errorf("implausible del count %d", nDels)
	}
	for i := uint32(0); i < nDels && d.err == nil; i++ {
		u := graph.NodeID(d.u32())
		v := graph.NodeID(d.u32())
		r.dels = append(r.dels, [2]graph.NodeID{u, v})
	}
	if d.err != nil {
		return r, d.err
	}
	if d.off != len(body) {
		return r, fmt.Errorf("%d trailing bytes in wal record", len(body)-d.off)
	}
	return r, nil
}

// scanWAL reads a whole WAL image: header, then records until the first
// invalid one. It returns the decoded records, the byte offset of the end of
// the last valid record (the truncation point), and whether a torn or
// corrupt tail was found past it. A header failure returns an error — the
// whole file is unusable, not merely torn.
func scanWAL(b []byte) (baseGen uint64, recs []walRecord, validLen int64, torn bool, err error) {
	baseGen, err = parseWALHeader(b)
	if err != nil {
		return 0, nil, 0, false, err
	}
	off := int64(walHeaderLen)
	for {
		rest := b[off:]
		if len(rest) == 0 {
			return baseGen, recs, off, false, nil
		}
		if len(rest) < 8 {
			return baseGen, recs, off, true, nil
		}
		bodyLen := binary.LittleEndian.Uint32(rest[0:4])
		bodyCRC := binary.LittleEndian.Uint32(rest[4:8])
		if bodyLen > maxWALRecord || int64(len(rest)) < 8+int64(bodyLen) {
			return baseGen, recs, off, true, nil
		}
		body := rest[8 : 8+bodyLen]
		if crc32.Checksum(body, castagnoli) != bodyCRC {
			return baseGen, recs, off, true, nil
		}
		rec, derr := decodeWALBody(body)
		if derr != nil {
			return baseGen, recs, off, true, nil
		}
		recs = append(recs, rec)
		off += 8 + int64(bodyLen)
	}
}

// readAll drains a fault.File.
func readAll(f io.Reader) ([]byte, error) {
	return io.ReadAll(f)
}
