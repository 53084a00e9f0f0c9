package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// Fuzz targets for the protocol decoders that take root or entry names:
// brmi.req, brmi.resp and brmi.getbatch.req arrive from the network, so
// every byte string must decode to a value or a typed error, never a panic
// or an allocation out of proportion to its size; and what decodes must
// re-encode canonically. Run one with, e.g.:
//
//	go test ./internal/core -run '^$' -fuzz '^FuzzBatchRequest$' -fuzztime=10s

// fuzzAllocBound is the heap a decode may allocate for n input bytes: a
// fixed allowance plus a per-byte factor covering the largest decoded
// element (a callResult) per claimed slice element.
func fuzzAllocBound(n int) uint64 { return 1<<20 + 1024*uint64(n) }

// fuzzDecode runs the shared checks on one input and returns the decoded
// message when it decoded to a *T.
func fuzzDecode[T any](t *testing.T, data []byte) *T {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := wire.Unmarshal(data)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > fuzzAllocBound(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), got)
	}
	if err != nil {
		return nil
	}
	m, ok := v.(*T)
	if !ok {
		return nil
	}
	// encode(decode(x)) is canonical: it decodes again and re-encodes to
	// itself (addSeeds checks that canonical inputs come back byte for byte).
	y, err := wire.Marshal(m)
	if err != nil {
		t.Fatalf("re-encode decoded %T: %v", m, err)
	}
	v2, err := wire.Unmarshal(y)
	if err != nil {
		t.Fatalf("decode re-encoded %T: %v", m, err)
	}
	z, err := wire.Marshal(v2)
	if err != nil {
		t.Fatalf("re-encode %T twice: %v", m, err)
	}
	if !bytes.Equal(y, z) {
		t.Fatalf("encoding is not canonical:\n%x\n%x", y, z)
	}
	return m
}

// addSeeds adds each message's encoding to the corpus, first checking
// encode(decode(x)) == x on it.
func addSeeds(f *testing.F, msgs ...any) {
	for _, m := range msgs {
		b, err := wire.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		v, err := wire.Unmarshal(b)
		if err != nil {
			f.Fatalf("decode seed %T: %v", m, err)
		}
		if b2, err := wire.Marshal(v); err != nil || !bytes.Equal(b, b2) {
			f.Fatalf("seed %T does not round-trip: %v\n%x\n%x", m, err, b, b2)
		}
		f.Add(b)
	}
}

// requireCorrupt checks that msg, whose name slice mismatches its roots or
// ids, encodes but is rejected on decode with *wire.CorruptError.
func requireCorrupt(f *testing.F, msg any) {
	b, err := wire.Marshal(msg)
	if err != nil {
		f.Fatal(err)
	}
	var ce *wire.CorruptError
	if _, err := wire.Unmarshal(b); !errors.As(err, &ce) {
		f.Fatalf("mismatched names decoded with %v, want *wire.CorruptError", err)
	}
	f.Add(b)
}

func FuzzBatchRequest(f *testing.F) {
	named := unnamedFlush()
	named.RootNames = []string{"acct-1", ""}
	addSeeds(f, unnamedFlush(), named,
		&batchRequest{Root: 7, Calls: []invocationData{{Target: RootTarget, Method: "Echo", Kind: kindValue, Args: []batchArg{{Val: "hi"}}}}},
		&batchRequest{Session: 4, Policy: ContinuePolicy()},
		&batchRequest{RootNames: []string{"a"}})
	requireCorrupt(f, &batchRequest{Roots: []uint64{1, 2}, RootNames: []string{"a", "b"}})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzDecode[batchRequest](t, data)
		if r != nil && r.RootNames != nil && len(r.RootNames) != 1+len(r.Roots) {
			t.Fatalf("decoded %d names for %d roots", len(r.RootNames), 1+len(r.Roots))
		}
	})
}

func FuzzBatchResponse(f *testing.F) {
	named := unnamedReply()
	named.RootRefs = []wire.Ref{{Endpoint: "server", ObjID: 12, Iface: "t.Counter"}, {}}
	addSeeds(f, unnamedReply(), named,
		&batchResponse{Results: []callResult{{Value: "hi"}}},
		&batchResponse{Results: []callResult{{Seq: 3, Base: 1 << 40, Count: 2, Block: []any{int64(1), nil}, BlockErrs: []any{nil, "x"}, Attempts: 2}}})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode[batchResponse](t, data)
	})
}

func FuzzGetBatchRequest(f *testing.F) {
	addSeeds(f,
		&getBatchRequest{ObjIDs: []uint64{5, 6}, Indexes: []int64{0, 3}, Method: "Get"},
		&getBatchRequest{ObjIDs: []uint64{0, 6}, Indexes: []int64{1, 2}, Names: []string{"blob-1", ""}},
		&getBatchRequest{})
	requireCorrupt(f, &getBatchRequest{ObjIDs: []uint64{1}, Indexes: []int64{0}, Names: []string{"a", "b"}})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzDecode[getBatchRequest](t, data)
		if r != nil && r.Names != nil && len(r.Names) != len(r.ObjIDs) {
			t.Fatalf("decoded %d names for %d ids", len(r.Names), len(r.ObjIDs))
		}
	})
}
