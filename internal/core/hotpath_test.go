package core

import (
	"context"
	"encoding/hex"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// Guards for the unnamed hot path: flushes that carry no root names must
// encode exactly as they did before names went on the wire, and the
// executor must not allocate more for them.

// hotEcho is the executor-level Echo workload object.
type hotEcho struct{ rmi.RemoteBase }

func (*hotEcho) Echo(s string) string { return s }

// unnamedFlush is a representative unnamed flush: a chained, parallel
// multi-root request with value and proxy arguments.
func unnamedFlush() *batchRequest {
	return &batchRequest{
		Root: 7,
		Calls: []invocationData{
			{Seq: 0, Target: RootTarget, Method: "Echo", Kind: kindValue, Args: []batchArg{{Val: "hi"}}},
			{Seq: 1, Target: RootTarget - 1, Method: "Self", Kind: kindRemote, Export: true},
			{Seq: 2, Target: 1, Method: "Absorb", Kind: kindValue, Args: []batchArg{{IsRef: true, Seq: 1}}},
		},
		Session:     3,
		KeepSession: true,
		Parallel:    true,
		Roots:       []uint64{9},
	}
}

func unnamedReply() *batchResponse {
	return &batchResponse{
		Results: []callResult{
			{Seq: 0, Value: "hi"},
			{Seq: 1, Ref: wire.Ref{Endpoint: "server", ObjID: 12, Iface: "t.Counter"}},
			{Seq: 2, Err: &SessionExpiredError{Session: 3}, Skipped: true},
		},
		Session:  3,
		Restarts: 1,
	}
}

// Golden encodings of unnamedFlush, unnamedReply and the minimal
// single-call flush/reply, as produced before RootNames/RootRefs existed.
const (
	goldenFlush = "0d010862726d692e7265710c010605070a030d020862726d692e696e760c0205040004010804" +
		"4563686f04020a010d030862726d692e6172670c0301080268690c020704020403080453656c" +
		"660404010400030c02050404040208064162736f726204020a010c030301030402050303030a" +
		"010509"
	goldenReply = "0d010962726d692e726573700c01030a030d020b62726d692e726573756c740c0202040008" +
		"0268690c020904020101020400040001010e067365727665720c09742e436f756e7465720c02" +
		"040404010d031362726d692e53657373696f6e457870697265640c030105030305030402"
	goldenSmallFlush = "0d010862726d692e7265710c010205070a010d020862726d692e696e760c02050400040108" +
		"044563686f04020a010d030862726d692e6172670c030108026869"
	goldenSmallReply = "0d010962726d692e726573700c01010a010d020b62726d692e726573756c740c0202040008" +
		"026869"
)

func TestUnnamedFlushBytesUnchanged(t *testing.T) {
	small := &batchRequest{Root: 7, Calls: []invocationData{{Target: RootTarget, Method: "Echo", Kind: kindValue, Args: []batchArg{{Val: "hi"}}}}}
	smallReply := &batchResponse{Results: []callResult{{Value: "hi"}}}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"flush", unnamedFlush(), goldenFlush},
		{"reply", unnamedReply(), goldenReply},
		{"small flush", small, goldenSmallFlush},
		{"small reply", smallReply, goldenSmallReply},
	} {
		b, err := wire.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// TestUnnamedEchoFlushAllocs pins the executor's allocations for an
// unnamed 4-call Echo flush, the hot-echo benchmark's replay path.
func TestUnnamedEchoFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	network := netsim.New(netsim.Instant)
	defer network.Close()
	p := rmi.NewPeer(network)
	defer p.Close()
	if err := p.Serve("server"); err != nil {
		t.Fatal(err)
	}
	e, err := Install(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	ref, err := p.Export(&hotEcho{}, "t.Echo")
	if err != nil {
		t.Fatal(err)
	}
	req := &batchRequest{Root: ref.ObjID}
	for i := 0; i < 4; i++ {
		req.Calls = append(req.Calls, invocationData{Seq: int64(i), Target: RootTarget, Method: "Echo", Kind: kindValue, Args: []batchArg{{Val: "payload"}}})
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.InvokeBatch(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != unnamedEchoFlushAllocs {
		t.Errorf("unnamed 4-call Echo flush allocates %.1f times, want %d", allocs, unnamedEchoFlushAllocs)
	}
}

// unnamedEchoFlushAllocs is the executor's allocation count for the flush
// above before names went on the wire.
const unnamedEchoFlushAllocs = 14
