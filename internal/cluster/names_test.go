package cluster_test

// Names on the wire: a named root or GetBatch entry travels to its home
// server as a name and resolves in that server's registry while the flush
// executes, so naming costs no round trip of its own. These tests pin the
// round-trip counts with client CallCount deltas and the error classes.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/registry"
)

// bindSpread binds n counters (seeded 100+i) under prefix-i and fails the
// test unless their homes cover at least two members.
func bindSpread(t *testing.T, ec *clustertest.Cluster, dir *cluster.Directory, prefix string, n int) []string {
	t.Helper()
	names := make([]string, n)
	homes := make(map[string]bool)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%02d", prefix, i)
		ec.BindCounter(dir, names[i], 100+int64(i))
		home, err := dir.Home(names[i])
		if err != nil {
			t.Fatal(err)
		}
		homes[home] = true
	}
	if len(homes) < 2 {
		t.Fatalf("all %d names landed on one member", n)
	}
	return names
}

// TestRootNamedCostsNoRoundTrip: recording named roots sends nothing, and
// an 8-name read batch over 2 servers flushes in exactly 2 round trips —
// one per destination, no lookups.
func TestRootNamedCostsNoRoundTrip(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	names := bindSpread(t, ec, dir, "rn", 8)

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	futures := make([]*cluster.Future, len(names))
	for i, name := range names {
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := b.RootNamed(ctx, name); again != p {
			t.Fatalf("RootNamed(%q) twice returned two proxies", name)
		}
		futures[i] = p.Call("Get")
	}
	if got := ec.Client.CallCount() - before; got != 0 {
		t.Fatalf("recording 8 named roots cost %d round trips, want 0", got)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ec.Client.CallCount() - before; got != 2 {
		t.Fatalf("8-name read batch over 2 servers cost %d round trips, want 2", got)
	}
	for i, f := range futures {
		if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 100+int64(i) {
			t.Errorf("%s = %v, %v; want %d", names[i], v, err, 100+i)
		}
	}
}

// TestRootNamedUnboundFailsAtFlush: an unbound name is no longer a
// record-time error; the home server rejects its wave with
// *registry.NotBoundError, which is not retried.
func TestRootNamedUnboundFailsAtFlush(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "ghost")
	if err != nil {
		t.Fatalf("RootNamed of an unbound name failed at record time: %v", err)
	}
	f := p.Call("Get")
	err = b.Flush(ctx)
	var fe *cluster.FlushError
	var nb *registry.NotBoundError
	if !errors.As(err, &fe) || !errors.As(err, &nb) || nb.Name != "ghost" {
		t.Fatalf("flush = %v, want a FlushError carrying NotBoundError{ghost}", err)
	}
	if b.StaleRetried() {
		t.Error("an unbound name spent the stale-route retry")
	}
	if err := f.Err(); !errors.As(err, &nb) {
		t.Errorf("future = %v, want NotBoundError", err)
	}
}

// TestStaleRingNamedFlushRoundTrips: a named flush routed by a stale ring
// costs exactly one rejected wave, one RingState per member of the stale
// ring, and one retry wave at the refreshed home — no registry Lookup.
func TestStaleRingNamedFlushRoundTrips(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	old := []string{"server-0", "server-1"}
	admin := cluster.NewDirectory(ec.Client, old)
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-2", 1)[0]
	ec.BindCounter(admin, name, 10)
	if _, err := cluster.NewRebalancer(admin).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	stale := cluster.NewDirectory(ec.Client, old)
	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(5))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("stale flush did not recover: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 15 {
		t.Fatalf("retried call = %v, %v; want 15", v, err)
	}
	if !b.StaleRetried() {
		t.Error("StaleRetried() = false")
	}
	if got, want := ec.Client.CallCount()-before, uint64(1+len(old)+1); got != want {
		t.Errorf("stale named flush cost %d round trips, want %d (rejected wave + %d RingState + retry wave)", got, want, len(old))
	}
}

// TestCrossServerNamedRootArgument: a named root passed as an argument of a
// call bound for another server has no home-server resolution to ride on;
// that case alone looks the name up at plan time (one extra round trip)
// and splices the ref in statically.
func TestCrossServerNamedRootArgument(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	var src, dst string
	for i := 0; src == "" || dst == ""; i++ {
		name := fmt.Sprintf("x-%d", i)
		home, err := dir.Home(name)
		if err != nil {
			t.Fatal(err)
		}
		if home == "server-0" && src == "" {
			src = name
		} else if home == "server-1" && dst == "" {
			dst = name
		}
	}
	ec.BindCounter(dir, src, 7)
	ec.BindCounter(dir, dst, 30)

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithSingleStage())
	ps, err := b.RootNamed(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := b.RootNamed(ctx, dst)
	if err != nil {
		t.Fatal(err)
	}
	f := pd.Call("AddRemote", ps)
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 37 {
		t.Fatalf("AddRemote = %v, %v; want 37", v, err)
	}
	if got := ec.Client.CallCount() - before; got != 2 {
		t.Errorf("cross-server named argument cost %d round trips, want 2 (lookup + wave)", got)
	}
}

// TestGetBatchNamesOneRequestPerDestination: 64 names over 2 servers cost
// exactly 2 client round trips — the two streams, no lookups.
func TestGetBatchNamesOneRequestPerDestination(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	names := bindSpread(t, ec, dir, "gb", 64)

	before := ec.Client.CallCount()
	s, err := cluster.GetBatch(ctx, ec.Client, dir, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainInOrder(t, s, names)
	if got := ec.Client.CallCount() - before; got != 2 {
		t.Errorf("GetBatch of 64 names over 2 servers cost %d round trips, want 2", got)
	}
}

// TestGetBatchStaleRingDeliversInOrder: with a stale ring, the entries
// whose names migrated fail wrong-home at their old home, are re-issued
// after one ring refresh, and every entry still arrives in request order
// with the right value.
func TestGetBatchStaleRingDeliversInOrder(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	old := []string{"server-0", "server-1"}
	admin := cluster.NewDirectory(ec.Client, old)
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	moved := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-2", 3)
	stay0 := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-0", 3)
	stay1 := clustertest.PickNames(admin.Ring(), grown, "server-1", "server-1", 3)
	var names []string
	for i := range moved {
		names = append(names, stay0[i], moved[i], stay1[i])
	}
	for i, name := range names {
		ec.BindCounter(admin, name, 100+int64(i))
	}
	if _, err := cluster.NewRebalancer(admin).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	stale := cluster.NewDirectory(ec.Client, old)
	before := ec.Client.CallCount()
	s, err := cluster.GetBatch(ctx, ec.Client, stale, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainInOrder(t, s, names)
	// 2 streams at the stale homes, a RingState per stale member, and one
	// stream to the new home for the moved names.
	if got, want := ec.Client.CallCount()-before, uint64(2+len(old)+1); got != want {
		t.Errorf("stale GetBatch cost %d round trips, want %d", got, want)
	}
}

// drainInOrder reads s to EOF, requiring entry i to be names[i] with value
// 100+i.
func drainInOrder(t *testing.T, s *cluster.Stream, names []string) {
	t.Helper()
	for i := 0; ; i++ {
		e, err := s.Next()
		if err == io.EOF {
			if i != len(names) {
				t.Fatalf("stream ended after %d entries, want %d", i, len(names))
			}
			return
		}
		if err != nil {
			t.Fatalf("Next() entry %d: %v", i, err)
		}
		if e.Index != i || e.Name != names[i] {
			t.Fatalf("entry %d = {%d, %q}, want {%d, %q}", i, e.Index, e.Name, i, names[i])
		}
		if v, ok := e.Value.(int64); e.Err != nil || !ok || v != 100+int64(i) {
			t.Fatalf("entry %d (%s) = %v, %v; want %d", i, e.Name, e.Value, e.Err, 100+i)
		}
	}
}
