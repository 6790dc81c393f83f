package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzDecodeBytes feeds arbitrary bytes to the snapshot decoder: it may
// not panic or over-allocate from a corrupted length field, and whatever
// it accepts must re-encode byte-identically and decode again to the same
// bytes.
func FuzzDecodeBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(magic[:])
	f.Add((&Snapshot{}).EncodeBytes())
	f.Add(sampleSnapshot().EncodeBytes())
	// A valid header with a hostile node count.
	hostile := append([]byte{}, magic[:]...)
	hostile = append(hostile, 1, 0, 0, 0)
	hostile = append(hostile, bytes.Repeat([]byte{0xff}, 64)...)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeBytes(data)
		if err != nil {
			return
		}
		first := snap.EncodeBytes()
		if !bytes.Equal(first, data) {
			t.Fatalf("accepted input does not re-encode identically: %d vs %d bytes",
				len(data), len(first))
		}
		back, err := DecodeBytes(first)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(back.EncodeBytes(), first) {
			t.Fatal("second round trip diverged")
		}
	})
}
