package cluster

import (
	"testing"

	"repro/internal/rmi"
)

// TestReplStateReadOnly pins the per-call half of the unshipped-wave rule on
// a hand-built sub-batch: every call must be a CallRO (rule 1), target a
// root (rule 2), and name a method the root's resolved interface declares
// readonly (rule 3). The session half (rule 4) is the caller's, pinned end
// to end in replication_test.go.
func TestReplStateReadOnly(t *testing.T) {
	const iface, other = "stage_test.Store", "stage_test.Other"
	rmi.RegisterReadOnly(iface, "Size")
	rmi.RegisterReadOnly(other, "Peek")

	g := &group{endpoint: "server-0"}
	r0 := &Proxy{group: g, isRoot: true, rootIdx: 0}
	r1 := &Proxy{group: g, isRoot: true, rootIdx: 1}
	g.roots = []*Proxy{r0, r1}
	rs := &replState{ifaces: []string{iface, other}}
	derived := &Proxy{group: g, origin: &recordedCall{target: r0, method: "Open", kind: kindRemote}}

	ro := func(target *Proxy, method string) *recordedCall {
		return &recordedCall{group: g, kind: kindValue, target: target, method: method, ro: true}
	}
	write := ro(r0, "Size")
	write.ro = false

	for _, tc := range []struct {
		name  string
		calls []*recordedCall
		want  bool
	}{
		{"readonly on both roots", []*recordedCall{ro(r0, "Size"), ro(r1, "Peek")}, true},
		{"rule 1: a Call among CallROs", []*recordedCall{ro(r0, "Size"), write}, false},
		{"rule 2: CallRO on a result proxy", []*recordedCall{ro(r0, "Size"), ro(derived, "Size")}, false},
		{"rule 3: method not readonly for the resolved iface", []*recordedCall{ro(r0, "Peek")}, false},
		{"rule 3: method unknown", []*recordedCall{ro(r1, "Drain")}, false},
	} {
		if got := rs.readOnly(&subBatch{group: g, calls: tc.calls}); got != tc.want {
			t.Errorf("%s: readOnly = %v, want %v", tc.name, got, tc.want)
		}
	}
	if rs.readOnly(nil) {
		t.Error("a pure session close (no sub-batch) counted as readonly")
	}
}
