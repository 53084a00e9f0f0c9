package wire

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestNestedSliceAllocationLinear: a message of nested generic slice
// headers, each claiming half the message as its length, must not
// allocate in proportion to depth times claim.
func TestNestedSliceAllocationLinear(t *testing.T) {
	const size = 4096
	var msg []byte
	for len(msg) < size-4 {
		msg = append(msg, kSlice)
		msg = binary.AppendUvarint(msg, size/2)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Unmarshal(msg); err == nil {
		t.Fatal("truncated nested slices decoded")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 512*size {
		t.Errorf("decoding %d bytes of nested slice headers allocated %d bytes", len(msg), got)
	}
}
