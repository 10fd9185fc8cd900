package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/trajectory"
)

// FuzzWALDecode drives Decode — what a replication follower runs on bytes
// from the socket, and the framing replay reads from disk — with arbitrary
// input. It must not panic and must consume at most the input. Re-encoding
// the decoded records must reproduce exactly the consumed bytes (the byte
// identity that lets a follower's log length stand for its state). And any
// prefix of that valid stream must decode without error to the complete
// records it holds: a torn chunk is "wait for more bytes", never corruption.
func FuzzWALDecode(f *testing.F) {
	var stream []byte
	for _, rec := range []Record{
		{ID: "a", Sample: trajectory.S(1, 2, 3)},
		{ID: "bus-42", Sample: trajectory.S(1.7e9, -5, 6.5)},
		{ID: "", Sample: trajectory.S(0, 0, 0)},
	} {
		b, err := encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		stream = append(stream, b...)
	}
	f.Add(stream, uint16(0))
	f.Add(stream[:len(stream)-3], uint16(17)) // torn tail
	badCRC := append([]byte(nil), stream...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC, uint16(40))
	for _, n := range []uint32{0, 24, maxIDLen + 26} { // implausible payload lengths
		frame := binary.LittleEndian.AppendUint32(nil, n)
		f.Add(append(frame, make([]byte, 32)...), uint16(3))
	}

	f.Fuzz(func(t *testing.T, buf []byte, cut uint16) {
		recs, consumed, _ := Decode(buf)
		if consumed > len(buf) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
		}
		ends := make([]int, len(recs)+1) // ends[i]: encoded length of recs[:i]
		var again []byte
		for i, rec := range recs {
			b, err := encode(rec)
			if err != nil {
				t.Fatalf("re-encoding decoded record %d: %v", i, err)
			}
			again = append(again, b...)
			ends[i+1] = len(again)
		}
		if !bytes.Equal(again, buf[:consumed]) {
			t.Fatalf("re-encoded records (%d bytes) differ from the %d consumed bytes", len(again), consumed)
		}

		k := int(cut) % (consumed + 1)
		pre, preConsumed, err := Decode(buf[:k])
		if err != nil {
			t.Fatalf("prefix of %d valid bytes: %v", k, err)
		}
		n := len(pre)
		if n > len(recs) || preConsumed != ends[n] || (n < len(recs) && ends[n+1] <= k) {
			t.Fatalf("prefix of %d bytes decoded %d records in %d bytes; record ends are %v", k, n, preConsumed, ends)
		}
		for i, rec := range pre {
			b, err := encode(rec)
			if err != nil || !bytes.Equal(b, buf[ends[i]:ends[i+1]]) {
				t.Fatalf("prefix record %d differs from record %d of the full stream", i, i)
			}
		}
	})
}
