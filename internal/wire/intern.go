package wire

import (
	"sync"
	"sync/atomic"
)

// intern.go: a bounded string-interning table for decoded strings. The
// protocol re-transmits the same short strings constantly — method names,
// wire type names, interface names, endpoints — and every decode used to
// allocate a fresh copy. Interning returns the shared instance instead;
// strings are immutable, so sharing is safe. The table is capacity-bounded:
// once a shard fills, unknown strings decode with a plain allocation (a
// lookup miss costs one RLock probe), so unbounded unique payload data
// cannot grow the table. A string enters the table only on its second
// miss: strings that never repeat (replication record ids, chain ids)
// decode with the allocation they would cost anyway and leave no entry, so
// they neither hold memory nor crowd recurring strings out.

const (
	internShards     = 16
	maxInternLen     = 64
	maxInternPerSlot = 2048
	internSeenSlots  = 256
)

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
	// seen is a direct-mapped filter of the hashes of recently missed
	// strings; a colliding miss simply evicts the slot.
	seen [internSeenSlots]atomic.Uint64
}

var internTab [internShards]internShard

// internBytes returns the canonical string for b.
func internBytes(b []byte) string {
	n := len(b)
	if n == 0 {
		return ""
	}
	if n > maxInternLen {
		return string(b)
	}
	// FNV-1a over first/last bytes and length spreads the shards cheaply.
	h := uint32(2166136261)
	h = (h ^ uint32(b[0])) * 16777619
	h = (h ^ uint32(b[n-1])) * 16777619
	h = (h ^ uint32(n)) * 16777619
	sh := &internTab[h&(internShards-1)]

	sh.mu.RLock()
	s, ok := sh.m[string(b)] // compiler avoids allocating the lookup key
	full := len(sh.m) >= maxInternPerSlot
	sh.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	if full {
		return s
	}
	seen := uint64(14695981039346656037)
	for _, c := range b {
		seen = (seen ^ uint64(c)) * 1099511628211
	}
	seen |= 1 // never the empty slot's zero
	if sh.seen[(seen>>1)%internSeenSlots].Swap(seen) != seen {
		return s // first miss: remember it, intern on the next
	}
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]string, 64)
	}
	if prev, ok := sh.m[s]; ok {
		s = prev
	} else if len(sh.m) < maxInternPerSlot {
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}
