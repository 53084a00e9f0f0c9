package cluster_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/wire"
)

// FuzzReplRecord fuzzes the decoder of cluster.replRecord, the record a
// follower's Replica.Append receives from any client: every byte string
// must decode to a value or an error, never a panic or an allocation out of
// proportion to its size, and what decodes must re-encode canonically. The
// seeds are records shaped like the ones replicated flushes ship: a chained
// write wave, the wave that closes its session, and a two-root wave. Run it
// with:
//
//	go test ./internal/cluster -run '^$' -fuzz '^FuzzReplRecord$' -fuzztime=10s
func FuzzReplRecord(f *testing.F) {
	for _, rec := range shippedRecords(f) {
		b, err := wire.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		v, err := wire.Unmarshal(b)
		if err != nil {
			f.Fatalf("decode seed: %v", err)
		}
		if b2, err := wire.Marshal(v); err != nil || !bytes.Equal(b, b2) {
			f.Fatalf("seed record does not round-trip: %v\n%x\n%x", err, b, b2)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := wire.Unmarshal(data)
		runtime.ReadMemStats(&after)
		// A fixed allowance plus a per-byte factor covering the largest
		// element a claimed slice length can make the decoder build.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), got)
		}
		if err != nil {
			return
		}
		rec, ok := v.(*cluster.ReplRecord)
		if !ok {
			return
		}
		y, err := wire.Marshal(rec)
		if err != nil {
			t.Fatalf("re-encode decoded record: %v", err)
		}
		v2, err := wire.Unmarshal(y)
		if err != nil {
			t.Fatalf("decode re-encoded record: %v", err)
		}
		z, err := wire.Marshal(v2)
		if err != nil {
			t.Fatalf("re-encode record twice: %v", err)
		}
		if !bytes.Equal(y, z) {
			t.Fatalf("encoding is not canonical:\n%x\n%x", y, z)
		}
	})
}

// shippedRecords captures real wave payloads from a one-server cluster and
// wraps them the way the staged executor's replicate does.
func shippedRecords(tb testing.TB) []*cluster.ReplRecord {
	ec := clustertest.New(tb, 1)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	ec.BindCounter(dir, "obj-0", 100)
	ec.BindCounter(dir, "obj-1", 200)
	ep := ec.Endpoints()[0]

	var payloads []any
	capture := func(req any, _ bool) { payloads = append(payloads, req) }

	chained := core.NewNamed(ec.Client, ep, "obj-0")
	chained.OnShip(capture)
	p := chained.Root()
	p.Call("Add", int64(5))
	if err := chained.FlushAndContinue(ctx); err != nil {
		tb.Fatal(err)
	}
	p.Call("Apply", int64(7), int64(105))
	if err := chained.Flush(ctx); err != nil {
		tb.Fatal(err)
	}

	multi := core.NewNamed(ec.Client, ep, "obj-0")
	multi.OnShip(capture)
	q, err := multi.AddRootNamed("obj-1")
	if err != nil {
		tb.Fatal(err)
	}
	multi.Root().Call("Add", int64(1))
	q.Call("Add", int64(2))
	if err := multi.Flush(ctx); err != nil {
		tb.Fatal(err)
	}
	if len(payloads) != 3 {
		tb.Fatalf("captured %d wave payloads, want 3", len(payloads))
	}

	one := []string{"obj-0"}
	two := []string{"obj-0", "obj-1"}
	ifaces := func(names []string) []string {
		out := make([]string, len(names))
		for i := range out {
			out[i] = clustertest.CounterIface
		}
		return out
	}
	return []*cluster.ReplRecord{
		{ID: "client#1/0", Chain: "client#1", Primary: ep, Epoch: 3, Names: one, Ifaces: ifaces(one), Payload: payloads[0]},
		{ID: "client#1/1", Chain: "client#1", Primary: ep, Epoch: 3, Names: one, Ifaces: ifaces(one), Payload: payloads[1]},
		{ID: "client#2/0", Chain: "client#2", Primary: ep, Epoch: 4, Names: two, Ifaces: ifaces(two), Payload: payloads[2]},
		{},
	}
}
