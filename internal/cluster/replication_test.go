package cluster_test

// End-to-end tests for shard replication and epoch-bump failover: owner
// lists, batch-log shipping to followers, promotion of the best replica
// after a primary dies with its state, and the headline durability claim —
// an acked flush survives the primary's crash, and an in-flight flush
// recorded against the dead primary recovers with exactly one retry wave.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
)

// TestRingOwners pins the owner-list contract: owners[0] is Route(key), the
// list holds min(R, size) distinct members, and the epoch is read atomically
// with the list.
func TestRingOwners(t *testing.T) {
	eps := []string{"server-0", "server-1", "server-2"}
	ring := cluster.NewRing(eps, cluster.WithReplication(2))
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("obj-%d", i)
		owners, epoch := ring.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("Owners(%s) = %v, want 2 owners", key, owners)
		}
		if owners[0] != ring.Route(key) {
			t.Errorf("Owners(%s)[0] = %s, want Route's pick %s", key, owners[0], ring.Route(key))
		}
		if owners[0] == owners[1] {
			t.Errorf("Owners(%s) = %v, owners not distinct", key, owners)
		}
		if epoch != ring.Epoch() {
			t.Errorf("Owners(%s) epoch = %d, want %d", key, epoch, ring.Epoch())
		}
	}

	// R larger than the membership: capped, never padded.
	wide := cluster.NewRing([]string{"a", "b"}, cluster.WithReplication(5))
	if owners, _ := wide.Owners("k"); len(owners) != 2 {
		t.Errorf("R=5 over 2 members: owners = %v, want both members", owners)
	}
	// Default ring: replication off, single owner.
	single := cluster.NewRing(eps)
	if owners, _ := single.Owners("k"); len(owners) != 1 {
		t.Errorf("default ring owners = %v, want exactly the home", owners)
	}
}

// placedDirectory builds a replicated directory over the cluster and runs
// the idempotent member re-add that seeds every bound name's followers
// (replica placement piggybacks on the rebalance flow).
func placedDirectory(t *testing.T, ec *clustertest.Cluster, seeds map[string]int64) *cluster.Directory {
	t.Helper()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	for name, seed := range seeds {
		ec.BindCounter(dir, name, seed)
	}
	if _, err := cluster.NewRebalancer(dir).AddServer(context.Background(), ec.Endpoints()[0]); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	return dir
}

// TestReplicatedFlushShipsToFollower: a flush against a replicated directory
// lands on the primary AND its follower — the follower's shard log grows, a
// seeded shadow applies the record, and the client observed one quorum wait.
func TestReplicatedFlushShipsToFollower(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})

	owners, _ := dir.Owners("obj-0")
	primary, follower := owners[0], owners[1]

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(5))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("replicated flush: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 105 {
		t.Fatalf("Add = %v, %v; want 105", v, err)
	}

	si := ec.Server(follower).Replica.ShardInfo(primary)
	var found bool
	for _, ni := range si.Names {
		if ni.Name == "obj-0" {
			found = true
			if !ni.Seeded {
				t.Error("follower shadow not seeded; placement did not run")
			}
			if ni.Applied != 1 {
				t.Errorf("follower applied %d records, want 1", ni.Applied)
			}
		}
	}
	if !found {
		t.Fatalf("follower %s holds no shadow of obj-0 (shard info %+v)", follower, si)
	}
	if got := ec.Server(follower).Stats.Snapshot().Counter("cluster.replica_appends"); got != 1 {
		t.Errorf("follower cluster.replica_appends = %d, want 1", got)
	}
	if got := ec.ClientStats.Snapshot().Counter("cluster.quorum_waits"); got != 1 {
		t.Errorf("client cluster.quorum_waits = %d, want 1", got)
	}
}

// TestFailoverRecoversAckedFlush: the primary crashes with its state after
// acking a replicated flush; FailoverServer promotes the follower's shadow
// and the acked write is still there. A second failover call is a converged
// no-op.
func TestFailoverRecoversAckedFlush(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, _ := dir.Owners("obj-0")
	primary := owners[0]

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(7))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("acked flush: %v", err)
	}
	if v, _ := cluster.Typed[int64](f).Get(); v != 107 {
		t.Fatalf("acked flush value = %d, want 107", v)
	}

	ec.CrashServer(primary)
	stats, err := cluster.NewRebalancer(dir).FailoverServer(ctx, primary)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if stats.Promoted < 1 {
		t.Errorf("failover promoted %d names, want at least obj-0", stats.Promoted)
	}
	if dir.Ring().Contains(primary) {
		t.Error("dead primary still in the ring after failover")
	}

	ref, err := dir.Lookup(ctx, "obj-0")
	if err != nil {
		t.Fatalf("lookup after failover: %v", err)
	}
	if ref.Endpoint == primary {
		t.Fatalf("obj-0 still resolves to the dead primary %s", primary)
	}
	res, err := ec.Client.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if got := res[0].(int64); got != 107 {
		t.Errorf("recovered state = %d, want 107 (the acked flush was lost)", got)
	}
	checkConverged(t, ec, dir, map[string]int64{"obj-0": 107})

	again, err := cluster.NewRebalancer(dir).FailoverServer(ctx, primary)
	if err != nil {
		t.Fatalf("repeated failover: %v", err)
	}
	if again.Promoted != 0 || again.Moved != 0 {
		t.Errorf("repeated failover = %+v, want converged no-op", again)
	}
}

// TestInFlightFlushSurvivesPrimaryCrash is the acceptance criterion pinned
// deterministically: a client records a flush against the primary, the
// primary dies with its state and is failed over, and the flush — whose
// first wave cannot even dial the dead endpoint — recovers at the promoted
// home with EXACTLY one extra retry wave. The earlier acked write is part of
// the recovered state.
func TestInFlightFlushSurvivesPrimaryCrash(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	admin := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, _ := admin.Owners("obj-0")
	primary := owners[0]

	// An acked write before the crash — it must be in the recovered state.
	wb := cluster.New(ec.Client, cluster.WithDirectory(admin))
	wp, err := wb.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	wp.Call("Add", int64(7))
	if err := wb.Flush(ctx); err != nil {
		t.Fatalf("pre-crash acked flush: %v", err)
	}

	// A second client with its own (soon stale) shard map records in-flight
	// work against the primary.
	stale := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(5))

	ec.CrashServer(primary)
	if _, err := cluster.NewRebalancer(admin).FailoverServer(ctx, primary); err != nil {
		t.Fatalf("failover: %v", err)
	}

	// The flush's first wave dials the dead primary (refused), classifying
	// as retry-safe; the single stale retry re-resolves the root through the
	// refreshed ring and lands at the promoted home.
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("in-flight flush did not survive the crash: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 112 {
		t.Fatalf("in-flight call = %v, %v; want 112 (100 seed + 7 acked + 5 in-flight)", v, err)
	}
	if !b.StaleRetried() {
		t.Error("StaleRetried() = false; the flush did not take the retry path")
	}
	if b.Waves() != 2 {
		t.Errorf("flush took %d waves, want exactly 2 (the dead wave + one retry)", b.Waves())
	}

	// The retried wave replicated like any other: the promoted home's new
	// follower holds the record under the bumped epoch.
	newOwners, _ := stale.Owners("obj-0")
	if len(newOwners) < 2 {
		t.Fatalf("post-failover owners = %v, want primary + follower", newOwners)
	}
	si := ec.Server(newOwners[1]).Replica.ShardInfo(newOwners[0])
	var applied int64
	for _, ni := range si.Names {
		if ni.Name == "obj-0" {
			applied = ni.Applied
		}
	}
	if applied < 1 {
		t.Errorf("retried wave did not replicate to the new follower %s (shard info %+v)", newOwners[1], si)
	}
	checkConverged(t, ec, admin, map[string]int64{"obj-0": 112})
}

// TestFailoverRetryConvergesAfterInjectedFault is the promotion-idempotence
// satellite: FailoverServer is cut immediately before each of its batched
// trips in turn — promotion, the three migration trips, replica placement —
// and a plain retried FailoverServer must converge from whatever partial
// state the cut left: every name resolves at its ring home exactly once with
// the acked state intact.
func TestFailoverRetryConvergesAfterInjectedFault(t *testing.T) {
	stages := []cluster.MigrationStage{
		cluster.StagePromote, cluster.StageSnapshot, cluster.StageArrive,
		cluster.StageDepart, cluster.StagePlace,
	}
	for _, stage := range stages {
		t.Run(string(stage), func(t *testing.T) {
			ec := clustertest.New(t, 4)
			ctx := context.Background()
			dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))

			// Election geometry that forces a post-promotion migration (by
			// consistent hashing, the FIRST follower is always the new home,
			// so a 2-owner shard never migrates after promotion): with
			// owners [server-0, server-2, server-1], both followers hold
			// equally-credentialed seeded shadows and the election tie-break
			// promotes the lexically-lowest — server-1 — while the survivor
			// ring homes the name at server-2. The failover then promotes at
			// server-1 AND migrates to server-2, so every probed stage is
			// reachable.
			var moving string
			for i := 0; moving == ""; i++ {
				name := fmt.Sprintf("obj-%d", i)
				owners, _ := dir.Owners(name)
				if owners[0] == "server-0" && owners[1] == "server-2" && owners[2] == "server-1" {
					moving = name
				}
				if i > 100000 {
					t.Fatal("no name with the required owner geometry")
				}
			}
			seeds := map[string]int64{moving: 500}
			ec.BindCounter(dir, moving, seeds[moving])
			if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-0"); err != nil {
				t.Fatalf("placement rebalance: %v", err)
			}

			// One acked write on top of the seed: the converged state must
			// carry it through every cut.
			b := cluster.New(ec.Client, cluster.WithDirectory(dir))
			p, err := b.RootNamed(ctx, moving)
			if err != nil {
				t.Fatal(err)
			}
			p.Call("Add", int64(1))
			if err := b.Flush(ctx); err != nil {
				t.Fatalf("acked flush: %v", err)
			}
			want := map[string]int64{moving: 501}

			ec.CrashServer("server-0")
			faulty := cluster.NewRebalancer(dir, cluster.WithMigrationProbe(failAtStage(stage)))
			if _, err := faulty.FailoverServer(ctx, "server-0"); !errors.Is(err, errInjected) {
				t.Fatalf("faulted failover error = %v, want the injected fault", err)
			}

			if _, err := cluster.NewRebalancer(dir).FailoverServer(ctx, "server-0"); err != nil {
				t.Fatalf("retried failover: %v", err)
			}
			if dir.Ring().Contains("server-0") {
				t.Error("dead server still in the ring after retried failover")
			}
			checkConverged(t, ec, dir, want)

			// A further retry is a clean no-op.
			if again, err := cluster.NewRebalancer(dir).FailoverServer(ctx, "server-0"); err != nil || again.Promoted != 0 || again.Moved != 0 {
				t.Errorf("third failover = %+v, %v; want converged no-op", again, err)
			}
		})
	}
}

// Readonly waves are not replicated: a wave whose every call is a CallRO
// on a root, registered readonly for the interface the primary resolved,
// and which neither keeps nor closes a chained session, runs on its primary
// alone. The tests below pin each rule, and that every other wave still
// ships.

// homedNames returns n names (prefix-0, prefix-1, …) per listed primary, in
// that order, chosen by dir's owner lists before anything is bound.
func homedNames(t *testing.T, dir *cluster.Directory, prefix string, primaries ...string) []string {
	t.Helper()
	out := make([]string, 0, len(primaries))
	for _, want := range primaries {
		for i := 0; ; i++ {
			name := fmt.Sprintf("%s-%d", prefix, i)
			if owners, _ := dir.Owners(name); owners[0] == want && !slices.Contains(out, name) {
				out = append(out, name)
				break
			}
			if i > 10000 {
				t.Fatalf("no name homed at %s", want)
			}
		}
	}
	return out
}

// replTotals sums the follower appends across the cluster and reads the
// client's quorum waits.
func replTotals(ec *clustertest.Cluster) (appends, quorumWaits int64) {
	for _, s := range ec.Servers {
		appends += s.Stats.Snapshot().Counter("cluster.replica_appends")
	}
	return appends, ec.ClientStats.Snapshot().Counter("cluster.quorum_waits")
}

// shardRecords is the number of records the follower of name's shard holds
// in its log of the primary's shard, and the name's Applied credential
// there.
func shardRecords(t *testing.T, ec *clustertest.Cluster, dir *cluster.Directory, name string) (length, applied int64) {
	t.Helper()
	owners, _ := dir.Owners(name)
	si := ec.Server(owners[1]).Replica.ShardInfo(owners[0])
	for _, ni := range si.Names {
		if ni.Name == name {
			return si.Len, ni.Applied
		}
	}
	t.Fatalf("follower %s holds no shadow of %s", owners[1], name)
	return 0, 0
}

// TestReadOnlyFlushIsNotShipped: a pure-readonly flush over two primaries
// costs one call per destination — no Append, no quorum wait.
func TestReadOnlyFlushIsNotShipped(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	names := homedNames(t, cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2)), "ro", "server-0", "server-1")
	dir := placedDirectory(t, ec, map[string]int64{names[0]: 10, names[1]: 20})

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	futs := make([]*cluster.Future, len(names))
	for i, name := range names {
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = p.CallRO("Get")
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("readonly flush: %v", err)
	}
	for i, want := range []int64{10, 20} {
		if v, err := cluster.Typed[int64](futs[i]).Get(); err != nil || v != want {
			t.Errorf("%s Get = %v, %v; want %d", names[i], v, err, want)
		}
	}
	if got := ec.Client.CallCount() - before; got != 2 {
		t.Errorf("readonly flush over 2 primaries cost %d calls, want 2 (one per destination)", got)
	}
	if appends, waits := replTotals(ec); appends != 0 || waits != 0 {
		t.Errorf("readonly flush: %d follower appends, %d quorum waits; want 0 and 0", appends, waits)
	}
}

// TestReadOnlyFlushSurvivesFollowerLoss: with the only follower dead, a
// readonly flush still succeeds — it waits on no quorum — while a write
// on the same name fails its quorum.
func TestReadOnlyFlushSurvivesFollowerLoss(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, _ := dir.Owners("obj-0")
	ec.CrashServer(owners[1])

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	f := p.CallRO("Get")
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("readonly flush with the follower dead: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 100 {
		t.Fatalf("Get = %v, %v; want 100", v, err)
	}

	wb := cluster.New(ec.Client, cluster.WithDirectory(dir))
	wp, err := wb.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	wp.Call("Add", int64(1))
	var qe *cluster.QuorumError
	if err := wb.Flush(ctx); !errors.As(err, &qe) {
		t.Fatalf("write with the follower dead: err = %v, want a *QuorumError", err)
	}
}

// TestReadOnlyFlushesLeaveAppliedUnchanged: readonly flushes do not move a
// follower's promotion credential — Applied counts state-changing records
// only.
func TestReadOnlyFlushesLeaveAppliedUnchanged(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})

	flush := func(record func(p *cluster.Proxy)) {
		t.Helper()
		b := cluster.New(ec.Client, cluster.WithDirectory(dir))
		p, err := b.RootNamed(ctx, "obj-0")
		if err != nil {
			t.Fatal(err)
		}
		record(p)
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	flush(func(p *cluster.Proxy) { p.Call("Add", int64(1)) })
	len0, applied0 := shardRecords(t, ec, dir, "obj-0")
	if applied0 != 1 {
		t.Fatalf("after one write the follower applied %d records, want 1", applied0)
	}
	for i := 0; i < 5; i++ {
		flush(func(p *cluster.Proxy) { p.CallRO("Get") })
	}
	if length, applied := shardRecords(t, ec, dir, "obj-0"); length != len0 || applied != applied0 {
		t.Errorf("after 5 readonly flushes: shard log %d, applied %d; want %d and %d (unchanged)", length, applied, len0, applied0)
	}
}

// TestMixedWaveShips: one CallRO beside a write makes the wave a write; it
// ships and waits on quorum exactly as before.
func TestMixedWaveShips(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	p.CallRO("Get")
	p.Call("Add", int64(2))
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, applied := shardRecords(t, ec, dir, "obj-0"); applied != 1 {
		t.Errorf("mixed wave: follower applied %d records, want 1", applied)
	}
	if appends, waits := replTotals(ec); appends != 1 || waits != 1 {
		t.Errorf("mixed wave: %d appends, %d quorum waits; want 1 and 1", appends, waits)
	}
}

// TestPlainCallOfReadOnlyMethodShips: the readonly registration alone is
// not enough either — a wave recorded through Call, not CallRO, ships.
func TestPlainCallOfReadOnlyMethodShips(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	p.Call("Get")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if appends, waits := replTotals(ec); appends != 1 || waits != 1 {
		t.Errorf("Call of a readonly method: %d appends, %d quorum waits; want 1 and 1", appends, waits)
	}
}

// TestUnregisteredReadOnlyShips: CallRO on a method the interface never
// declared readonly is not trusted — the wave ships.
func TestUnregisteredReadOnlyShips(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	p.CallRO("History") // side-effect free, but not registered readonly
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if appends, waits := replTotals(ec); appends != 1 || waits != 1 {
		t.Errorf("unregistered CallRO: %d appends, %d quorum waits; want 1 and 1", appends, waits)
	}
}

// chainedFlush records a two-wave chain on the first name's primary: first
// is recorded there in wave 0, and GetAfter/Apply (per secondRO) in wave 1,
// fed by a readonly Get on a second primary. It returns the length of the
// first name's shard log on its follower after the flush.
func chainedFlush(t *testing.T, first func(p *cluster.Proxy), secondRO bool) int64 {
	t.Helper()
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	names := homedNames(t, cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2)), "ch", "server-0", "server-1")
	dir := placedDirectory(t, ec, map[string]int64{names[0]: 10, names[1]: 20})

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	pa, err := b.RootNamed(ctx, names[0])
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.RootNamed(ctx, names[1])
	if err != nil {
		t.Fatal(err)
	}
	first(pa)
	dep := pb.CallRO("Get")
	var last *cluster.Future
	if secondRO {
		last = pa.CallRO("GetAfter", dep)
	} else {
		last = pa.Call("Apply", int64(7), dep)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Waves() != 2 {
		t.Fatalf("chained flush took %d waves, want 2", b.Waves())
	}
	if _, err := last.Get(); err != nil {
		t.Fatalf("wave-1 call: %v", err)
	}
	length, _ := shardRecords(t, ec, dir, names[0])
	return length
}

// TestReadOnlyWaveKeepingSessionShips: a readonly wave that leaves a chained
// session open ships — the next wave replays against the follower's shadow
// session, which must have seen it.
func TestReadOnlyWaveKeepingSessionShips(t *testing.T) {
	length := chainedFlush(t, func(p *cluster.Proxy) { p.CallRO("Get") }, false)
	if length != 2 {
		t.Errorf("follower shard log holds %d records, want 2 (readonly wave 0 kept the session, write wave 1 closed it)", length)
	}
}

// TestReadOnlyWaveClosingSessionShips: a readonly last wave that closes a
// chained session ships — the follower's shadow session closes with it.
func TestReadOnlyWaveClosingSessionShips(t *testing.T) {
	length := chainedFlush(t, func(p *cluster.Proxy) { p.Call("Add", int64(1)) }, true)
	if length != 2 {
		t.Errorf("follower shard log holds %d records, want 2 (write wave 0, readonly wave 1 closing the session)", length)
	}
}

// TestFailoverKeepsNameBoundOnLeavingMember: a removal cut after its
// broadcast leaves a name bound only on the leaving member, while the
// name's new home still has a follower holding a shadow from before the
// name moved to that member. When the new home dies, the failover must not
// promote that older shadow; finishing the removal then drains the name,
// acked write included.
func TestFailoverKeepsNameBoundOnLeavingMember(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	eps := ec.Endpoints()
	dir := cluster.NewDirectory(ec.Client, eps[:3], cluster.WithReplication(2))

	// The name's owners are [server-0, X] without server-3 and [server-3, Y]
	// with it, Y != X: joining server-3 re-places the name's shadow at Y and
	// leaves X's shadow under server-0's shard behind.
	grown := cluster.NewRing(eps, cluster.WithReplication(2))
	var name string
	for i := 0; name == ""; i++ {
		n := fmt.Sprintf("obj-%d", i)
		before, _ := dir.Owners(n)
		after, _ := grown.Owners(n)
		if before[0] == "server-0" && after[0] == "server-3" && after[1] != before[1] {
			name = n
		}
		if i > 100000 {
			t.Fatal("no name with the required owner geometry")
		}
	}
	ec.BindCounter(dir, name, 100)
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-0"); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-3"); err != nil {
		t.Fatalf("add server-3: %v", err)
	}
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	p.Call("Add", int64(7))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("acked write on server-3: %v", err)
	}

	cut := cluster.NewRebalancer(dir, cluster.WithMigrationProbe(failAtStage(cluster.StageSnapshot)))
	if _, err := cut.RemoveServer(ctx, "server-3"); !errors.Is(err, errInjected) {
		t.Fatalf("cut removal error = %v, want the injected fault", err)
	}
	ec.CrashServer("server-0")
	if _, err := cluster.NewRebalancer(dir).FailoverServer(ctx, "server-0"); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if _, err := cluster.NewRebalancer(dir).RemoveServer(ctx, "server-3"); err != nil {
		t.Fatalf("finish removal: %v", err)
	}
	checkConverged(t, ec, dir, map[string]int64{name: 107})
}
