package wire

import (
	"fmt"
	"testing"
	"unsafe"
)

// internedLen counts the table entries across shards.
func internedLen() int {
	n := 0
	for i := range internTab {
		sh := &internTab[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// TestInternSecondSighting: strings that never repeat leave no table entry,
// while a recurring string is shared from its second decode on.
func TestInternSecondSighting(t *testing.T) {
	before := internedLen()
	for i := 0; i < 1000; i++ {
		internBytes([]byte(fmt.Sprintf("intern-test-unique/%d", i)))
	}
	if grown := internedLen() - before; grown > 8 {
		t.Errorf("1000 unique strings left %d table entries", grown)
	}

	hot := []byte("intern-test-recurring")
	internBytes(hot)
	a := internBytes(hot)
	b := internBytes(hot)
	if a != "intern-test-recurring" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Errorf("a recurring string is not shared after its second decode")
	}
}
