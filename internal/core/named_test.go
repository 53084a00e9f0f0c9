package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// namedFixture is newFixture plus a registry on the server binding "dir"
// to the fixture directory and "other" to a second one.
func namedFixture(t *testing.T) (*fixture, *registry.Service, wire.Ref) {
	t.Helper()
	fx := newFixture(t)
	reg, err := registry.Start(fx.server)
	if err != nil {
		t.Fatal(err)
	}
	dir2 := &directory{}
	dir2.files = append(dir2.files, &file{dir: dir2, name: "other.txt", size: 9, date: baseDate(4)})
	dir2Ref, err := fx.server.Export(dir2, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Bind("dir", fx.dirRef); err != nil {
		t.Fatal(err)
	}
	if err := reg.Bind("other", dir2Ref); err != nil {
		t.Fatal(err)
	}
	return fx, reg, dir2Ref
}

// TestNamedRootsResolveAtServer: roots addressed by name ride the flush
// itself — one round trip for a named root, a named extra root and a
// ref-addressed extra root — and the batch learns the refs they resolved to.
func TestNamedRootsResolveAtServer(t *testing.T) {
	fx, _, dir2Ref := namedFixture(t)
	ctx := context.Background()
	dir3Ref, err := fx.server.Export(&directory{}, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}

	before := fx.client.CallCount()
	b := core.NewNamed(fx.client, "server", "dir")
	other, err := b.AddRootNamed("other")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := b.AddRootNamed("other"); again.Batch() != b {
		t.Fatal("AddRootNamed twice returned a foreign proxy")
	}
	if _, err := b.AddRoot(dir3Ref); err != nil {
		t.Fatal(err)
	}
	name1 := b.Root().CallBatch("GetFile", "A.txt").Call("GetName")
	name2 := other.CallBatch("GetFile", "other.txt").Call("GetName")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rounds := fx.client.CallCount() - before; rounds != 1 {
		t.Fatalf("named batch used %d round trips, want 1", rounds)
	}
	if got, err := core.Typed[string](name1).Get(); err != nil || got != "A.txt" {
		t.Errorf("named root = %q, %v", got, err)
	}
	if got, err := core.Typed[string](name2).Get(); err != nil || got != "other.txt" {
		t.Errorf("named extra root = %q, %v", got, err)
	}
	refs := b.RootRefs()
	if len(refs) != 3 || refs[0] != fx.dirRef || refs[1] != dir2Ref || refs[2] != dir3Ref {
		t.Errorf("RootRefs() = %v, want [%v %v %v]", refs, fx.dirRef, dir2Ref, dir3Ref)
	}
}

// TestNamedRootErrors: each way a name can fail to resolve rejects the
// whole flush with its typed error, before any call runs.
func TestNamedRootErrors(t *testing.T) {
	fx, reg, _ := namedFixture(t)
	ctx := context.Background()
	reg.Forward("gone", 7)
	if err := reg.Bind("far", wire.Ref{Endpoint: "elsewhere", ObjID: fx.dirRef.ObjID, Iface: fx.dirRef.Iface}); err != nil {
		t.Fatal(err)
	}

	var notBound *registry.NotBoundError
	var wrongHome *rmi.WrongHomeError
	var noSuch *rmi.NoSuchObjectError
	for _, tc := range []struct {
		name string
		want any
	}{
		{"ghost", &notBound},
		{"gone", &wrongHome},
		{"far", &noSuch},
	} {
		// The good root comes first: rejection must still precede execution.
		b := core.NewNamed(fx.client, "server", "dir")
		p, err := b.AddRootNamed(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		b.Root().CallBatch("GetFile", "A.txt").Call("Delete")
		f := p.Call("Names")
		if err := b.Flush(ctx); !errors.As(err, tc.want) {
			t.Errorf("%s: flush = %v, want %T", tc.name, err, tc.want)
		}
		if err := f.Err(); !errors.As(err, tc.want) {
			t.Errorf("%s: future = %v, want %T", tc.name, err, tc.want)
		}
	}
	if names := fx.dir.Names(); len(names) != 4 {
		t.Errorf("a rejected named flush executed calls: directory now %v", names)
	}
	if wrongHome == nil || wrongHome.Key != "gone" || wrongHome.NewEpoch != 7 {
		t.Errorf("wrong-home error = %+v, want key gone at epoch 7", wrongHome)
	}
}

// TestReplayShadowIgnoresNames: a follower replays a shipped named flush
// against its shadow ids, never against what the names resolve to there.
func TestReplayShadowIgnoresNames(t *testing.T) {
	fx, _, _ := namedFixture(t)
	ctx := context.Background()
	shadow := &directory{}
	shadow.files = append(shadow.files, &file{dir: shadow, name: "A.txt", size: 1, date: baseDate(1)})
	shadowRef, err := fx.server.Export(shadow, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}

	var shipped any
	b := core.NewNamed(fx.client, "server", "dir")
	b.OnShip(func(req any, _ bool) { shipped = req })
	b.Root().CallBatch("GetFile", "A.txt").Call("Delete")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fx.exec.ReplayShadow(ctx, shipped, shadowRef.ObjID, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := len(shadow.Names()); n != 0 {
		t.Errorf("shadow still holds %d files; the replay did not run against it", n)
	}
	if n := len(fx.dir.Names()); n != 3 {
		t.Errorf("primary holds %d files, want 3: the replay resolved the name", n)
	}
}
