package store

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzScanWAL feeds arbitrary bytes to the WAL scanner recovery runs on
// every boot. It must never panic, must report a truncation point inside the
// image, and must account for every byte before it: the header followed by
// the re-encoded decoded records reproduces b[:validLen] exactly, so
// recovery neither drops nor invents a committed edit.
func FuzzScanWAL(f *testing.F) {
	img := encodeWALHeader(7)
	img = append(img, encodeWALRecord([]graph.Edge{{U: 0, V: 1, W: 2.5}, {U: 3, V: 0, W: 1}}, nil)...)
	img = append(img, encodeWALRecord(nil, [][2]graph.NodeID{{1, 2}})...)
	img = append(img, encodeWALRecord([]graph.Edge{{U: 9, V: 9, W: 0.1}}, [][2]graph.NodeID{{9, 9}, {0, 1}})...)
	f.Add(img)
	f.Add(img[:len(img)-3])   // torn mid-record
	f.Add(img[:walHeaderLen]) // empty log
	f.Add(img[:walHeaderLen+5])
	for _, i := range []int{2, walHeaderLen + 1, walHeaderLen + 6, walHeaderLen + 9, len(img) - 1} {
		flipped := bytes.Clone(img)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, recs, validLen, torn, err := scanWAL(b)
		if err != nil {
			return // an unusable header is an error, not a torn tail
		}
		if validLen < walHeaderLen || validLen > int64(len(b)) {
			t.Fatalf("validLen %d outside [%d,%d]", validLen, walHeaderLen, len(b))
		}
		if torn != (validLen < int64(len(b))) {
			t.Fatalf("torn=%v with validLen %d of %d bytes", torn, validLen, len(b))
		}
		re := bytes.Clone(b[:walHeaderLen])
		for _, r := range recs {
			re = append(re, encodeWALRecord(r.adds, r.dels)...)
		}
		if !bytes.Equal(re, b[:validLen]) {
			t.Fatalf("header + %d re-encoded records (%d bytes) != the %d-byte valid prefix", len(recs), len(re), validLen)
		}
	})
}
