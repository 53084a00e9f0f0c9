package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// failover.go is the availability half of shard replication (replica.go is
// the durability half): replica placement after every membership change, and
// epoch-bump failover of a dead primary. Both reuse the rebalancer's batched
// fan-out machinery — placement is "migration to a shadow", failover is
// "promotion, then ordinary migration".

// replicaPlacement is one name to (re)seed at its followers: the name's
// authoritative ref on its primary and the follower endpoints owed a shadow.
type replicaPlacement struct {
	name      string
	ref       wire.Ref
	followers []string
}

// placeReplicas (re)seeds every movable name's followers from its primary
// under the routing ring. The rebalancer runs it after every membership
// change, and it is NOT an optimization: a follower that became responsible
// for a key it never followed would otherwise build its shadow lazily from
// a zero-state instance at the next shipped record, silently missing all
// history written before the change. Placement is a full, idempotent
// re-install — one snapshot batch per primary, one install batch per
// (primary, follower) pair, K names per trip — so a retried rebalance
// converges just like migration does. Names whose type has no movable
// factory cannot be snapshotted and are skipped: they are not replicated
// (the staged executor skips them symmetrically, see armReplication).
func (r *Rebalancer) placeReplicas(ctx context.Context, members []string, routing *Ring, epoch uint64) error {
	if routing.Replication() <= 1 {
		return nil
	}
	manifests := make([][]Binding, len(members))
	if err := eachEndpoint(members, func(i int, ep string) error {
		var ferr error
		manifests[i], ferr = fetchManifest(ctx, r.dir.peer, ep)
		return ferr
	}); err != nil {
		return err
	}
	bySrc := make(map[string][]replicaPlacement)
	for i, src := range members {
		for _, b := range manifests[i] {
			owners, _ := routing.Owners(b.Name)
			// Only names homed where the routing ring wants them are placed:
			// a mis-homed name (mid-migration on a retry) is seeded by the
			// rebalance run that finally homes it.
			if len(owners) < 2 || owners[0] != src || !movableAt(b.Ref, src) {
				continue
			}
			bySrc[src] = append(bySrc[src], replicaPlacement{name: b.Name, ref: b.Ref, followers: append([]string(nil), owners[1:]...)})
		}
	}
	errs := make([]error, 0, len(bySrc))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for src, places := range bySrc {
		wg.Add(1)
		go func(src string, places []replicaPlacement) {
			defer wg.Done()
			if err := r.placeFrom(ctx, src, places, epoch); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("cluster: place replicas of %s: %w", src, err))
				mu.Unlock()
			}
		}(src, places)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// placeFrom snapshots one primary's placed names in a single multi-root
// batch and installs the snapshots at each follower, one batch per
// follower, followers in parallel.
func (r *Rebalancer) placeFrom(ctx context.Context, src string, places []replicaPlacement, epoch uint64) error {
	peer := r.dir.peer
	sb := core.New(peer, NodeRef(src), core.WithParallelRoots())
	states := make([]*core.Future, len(places))
	for i, pl := range places {
		p, err := sb.AddRoot(pl.ref)
		if err != nil {
			return err
		}
		states[i] = p.Call("Snapshot")
	}
	if err := sb.Flush(ctx); err != nil {
		return fmt.Errorf("snapshot batch: %w", err)
	}
	byFollower := make(map[string][]int)
	for i, pl := range places {
		for _, f := range pl.followers {
			byFollower[f] = append(byFollower[f], i)
		}
	}
	followers := make([]string, 0, len(byFollower))
	for f := range byFollower {
		followers = append(followers, f)
	}
	sort.Strings(followers)
	return eachEndpoint(followers, func(_ int, f string) error {
		idx := byFollower[f]
		names := make([]string, len(idx))
		for j, i := range idx {
			names[j] = places[i].name
		}
		if err := r.probeNames(StagePlace, src, f, names); err != nil {
			return err
		}
		ib := core.New(peer, ReplicaRef(f))
		rep := ib.Root()
		futs := make([]*core.Future, len(idx))
		for j, i := range idx {
			v, err := states[i].Get()
			if err != nil {
				return fmt.Errorf("snapshot %q: %w", places[i].name, err)
			}
			futs[j] = rep.Call("Install", places[i].name, places[i].ref.Iface, v, src, epoch)
		}
		if err := ib.Flush(ctx); err != nil {
			return fmt.Errorf("install batch at %s: %w", f, err)
		}
		for j, i := range idx {
			if err := futs[j].Err(); err != nil {
				return fmt.Errorf("install %q at %s: %w", places[i].name, f, err)
			}
		}
		return nil
	})
}

// placeMoves seeds the new followers of a migration flow's names from the
// snapshots the flow just adopted at dst, BEFORE the source copies are
// tombstoned. Without it, a state-loss kill of the destination between a
// flow's depart trip and the rebalance's final placeReplicas pass would
// destroy the only copy of every moved name: the old shard's shadows are
// keyed under the old primary and invisible to the new primary's failover
// election. One install batch per follower, mirroring placeFrom.
func (r *Rebalancer) placeMoves(ctx context.Context, dst string, moves []move, movable []bool, states []*core.Future, routing *Ring, epoch uint64) error {
	if routing.Replication() <= 1 {
		return nil
	}
	byFollower := make(map[string][]int)
	for i, m := range moves {
		if !movable[i] {
			continue
		}
		owners, _ := routing.Owners(m.name)
		if len(owners) < 2 || owners[0] != dst {
			continue
		}
		for _, f := range owners[1:] {
			byFollower[f] = append(byFollower[f], i)
		}
	}
	if len(byFollower) == 0 {
		return nil
	}
	followers := make([]string, 0, len(byFollower))
	for f := range byFollower {
		followers = append(followers, f)
	}
	sort.Strings(followers)
	return eachEndpoint(followers, func(_ int, f string) error {
		idx := byFollower[f]
		names := make([]string, len(idx))
		for j, i := range idx {
			names[j] = moves[i].name
		}
		if err := r.probeNames(StagePlace, dst, f, names); err != nil {
			return err
		}
		ib := core.New(r.dir.peer, ReplicaRef(f))
		rep := ib.Root()
		futs := make([]*core.Future, len(idx))
		for j, i := range idx {
			v, err := states[i].Get()
			if err != nil {
				return fmt.Errorf("snapshot %q: %w", moves[i].name, err)
			}
			futs[j] = rep.Call("Install", moves[i].name, moves[i].ref.Iface, v, dst, epoch)
		}
		if err := ib.Flush(ctx); err != nil {
			return fmt.Errorf("install batch at %s: %w", f, err)
		}
		for j, i := range idx {
			if err := futs[j].Err(); err != nil {
				return fmt.Errorf("install %q at %s: %w", moves[i].name, f, err)
			}
		}
		return nil
	})
}

// FailoverServer removes a DEAD member from the cluster, recovering its
// shards from the survivors' replicas. It is the state-loss counterpart of
// RemoveServer, which drains a live member and must be preferred whenever
// the server still answers. The flow is an epoch bump:
//
//  1. fence — the shrunken membership is broadcast to the survivors at
//     epoch+1 BEFORE anything else, so an in-flight replication ship routed
//     by the old owner list is rejected (StaleShipError) instead of racing
//     the election below;
//  2. elect — every survivor reports its replica of the dead server's shard
//     (ShardInfo) and each name is won by the best candidate: seeded
//     shadows (snapshot-installed at placement) beat lazy ones, then newest
//     epoch, then most applied records, then lowest endpoint. Names already
//     bound on a survivor — migrated away before the crash, or promoted by
//     an earlier partial failover — or on a leaving member that a removal
//     has not drained yet are filtered out, so stale shadows are never
//     resurrected and retries converge;
//  3. promote — each winning survivor binds its shadows into its registry
//     (Replica.Promote, idempotent per name);
//  4. migrate — the ordinary copy-then-tombstone migration moves every
//     promoted name from its promoting survivor to its ring home, and
//     replica placement re-seeds the new followers.
//
// Every step is idempotent or fenced, so a failover that dies at any point
// is completed by calling FailoverServer again (the promotion-idempotence
// test retries it from every probe cut). Acked waves survive under W=all:
// an acked wave is on every follower of its keys, placement snapshots are
// taken only after the fence broadcast completed, so whichever candidate
// wins the election holds the wave. Under WithQuorum(W<R) the guarantee
// weakens to "survives while at least one of the W acking holders does" —
// the election still picks the longest seeded log, which holds every acked
// wave whenever any surviving follower does.
func (r *Rebalancer) FailoverServer(ctx context.Context, dead string) (*RebalanceStats, error) {
	// Adopt the cluster's authoritative epoch first, like AddServer; the
	// poll tolerates the dead member (it fails only when NO node answers).
	if err := r.dir.Refresh(ctx); err != nil {
		return nil, err
	}
	ring := r.dir.Ring()
	epoch := ring.Epoch()
	var survivors []string
	contained := ring.Contains(dead)
	if contained {
		if ring.Size() == 1 {
			return nil, errors.New("cluster: cannot fail over the last server")
		}
		for _, ep := range ring.Endpoints() {
			if ep != dead {
				survivors = append(survivors, ep)
			}
		}
		epoch++
	} else {
		// Already out of the ring: a prior failover got at least as far as
		// the broadcast. Re-run the remaining steps at the current epoch to
		// converge whatever is left (promotion, migration, placement are all
		// idempotent).
		survivors = ring.Endpoints()
		if len(survivors) == 0 {
			return nil, ErrNoServers
		}
	}
	target := NewRing(survivors, WithVirtualNodes(ring.vnodes), WithReplication(ring.Replication()))
	if err := r.broadcast(ctx, survivors, survivors, epoch); err != nil {
		return nil, err
	}

	// Election: collect every survivor's view of the dead server's shard.
	infos := make([]*ShardInfo, len(survivors))
	if err := eachEndpoint(survivors, func(i int, ep string) error {
		res, err := r.dir.peer.Call(ctx, ReplicaRef(ep), "ShardInfo", dead)
		if err != nil {
			return fmt.Errorf("cluster: shard info from %s: %w", ep, err)
		}
		if len(res) == 1 {
			if si, ok := res[0].(*ShardInfo); ok {
				infos[i] = si
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	type candidate struct {
		ep string
		ni NameInfo
	}
	best := make(map[string]candidate)
	for i, si := range infos {
		if si == nil {
			continue
		}
		for _, ni := range si.Names {
			cur, ok := best[ni.Name]
			if !ok || betterCandidate(survivors[i], ni, cur.ep, cur.ni) {
				best[ni.Name] = candidate{ep: survivors[i], ni: ni}
			}
		}
	}

	promoted := 0
	if len(best) > 0 {
		// Filter: a name already bound on a survivor, or on a leaving member,
		// is alive — promotion would overwrite fresher authoritative state
		// with a shadow.
		bound, err := r.boundNames(ctx, survivors, dead)
		if err != nil {
			return nil, err
		}
		byWinner := make(map[string][]string)
		for name, c := range best {
			if !bound[name] {
				byWinner[c.ep] = append(byWinner[c.ep], name)
				promoted++
			}
		}
		winners := make([]string, 0, len(byWinner))
		for ep := range byWinner {
			winners = append(winners, ep)
		}
		sort.Strings(winners)
		if err := eachEndpoint(winners, func(_ int, ep string) error {
			names := byWinner[ep]
			sort.Strings(names)
			if err := r.probeNames(StagePromote, dead, ep, names); err != nil {
				return err
			}
			if _, err := r.dir.peer.Call(ctx, ReplicaRef(ep), "Promote", dead, names, epoch); err != nil {
				return fmt.Errorf("cluster: promote on %s: %w", ep, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// The promoted names now sit in their promoting survivors' registries;
	// the ordinary migration flow homes them under the shrunken ring, and
	// placement re-seeds every key's followers.
	plan, moved, err := r.plan(ctx, survivors, target)
	if err != nil {
		return nil, err
	}
	if err := r.migrate(ctx, plan, target, epoch); err != nil {
		return nil, err
	}
	if err := r.placeReplicas(ctx, survivors, target, epoch); err != nil {
		return nil, err
	}
	if contained {
		ring.Remove(dead)
	}
	// A dead member's names were recovered from its replicas above: a
	// removal that was draining it has nothing left to drain.
	r.dir.setLeaving(dead, false)
	return &RebalanceStats{Epoch: epoch, Moved: moved, Pairs: len(plan), Promoted: promoted}, nil
}

// boundNames returns every name bound in the registry of a member or of a
// leaving member — one out of the ring whose removal has not finished
// draining it (Directory.setLeaving), dead excepted. The leaving members
// matter: a name the drain has not moved yet is bound only there, while a
// survivor may still hold a shadow of it from before it last moved to the
// leaving member; promoting that shadow would resurrect state older than
// acked writes, and the drain's later arrival would find the name already
// bound and keep the stale copy. A leaving member that does not answer
// fails the call: its bindings are unknown until its removal completes or
// it is failed over itself.
func (r *Rebalancer) boundNames(ctx context.Context, members []string, dead string) (map[string]bool, error) {
	sources := append([]string(nil), members...)
	for _, ep := range r.dir.leavingMembers() {
		if ep != dead && !contains(members, ep) {
			sources = append(sources, ep)
		}
	}
	manifests := make([][]Binding, len(sources))
	if err := eachEndpoint(sources, func(i int, ep string) error {
		var ferr error
		manifests[i], ferr = fetchManifest(ctx, r.dir.peer, ep)
		return ferr
	}); err != nil {
		return nil, err
	}
	bound := make(map[string]bool)
	for _, m := range manifests {
		for _, b := range m {
			bound[b.Name] = true
		}
	}
	return bound, nil
}

// betterCandidate reports whether candidate (ep, ni) beats (curEp, cur) in
// the per-name promotion election: seeded first (a snapshot-installed
// shadow holds the name's full pre-replication history; a lazily created
// one starts from zero state mid-stream), then newest SEED epoch — the
// record epoch alone can lie: a shadow seeded long ago catches a stray
// union-shipped record at the current epoch and would tie the true
// follower while missing every wave in between. Then most records applied
// since that seed, then newest record epoch, then lowest endpoint for
// determinism.
// rescueOrphans re-binds names that survive only as replica shadows: their
// binding died with a primary that was never failed over — killed while its
// seeded followers were out of the ring (where the failover election cannot
// see them), or stranded by a partially failed rebalance — and no member's
// registry resolves them anymore. For every such name the best-credentialed
// in-ring holder (same election order as FailoverServer) promotes its
// shadow, and the caller's migration pass then drains the name to its ring
// home and re-seeds its followers. Healthy clusters pay one Shards round
// trip per member and promote nothing: every shadowed name is bound at its
// primary. Returns how many names were rescued.
func (r *Rebalancer) rescueOrphans(ctx context.Context, members []string, epoch uint64) (int, error) {
	if r.dir.Ring().Replication() <= 1 {
		return 0, nil // no shadows exist, and members need not serve a Replica
	}
	bound, err := r.boundNames(ctx, members, "")
	if err != nil {
		return 0, fmt.Errorf("cluster: rescue orphans: %w", err)
	}
	type candidate struct {
		ep, primary string
		ni          NameInfo
	}
	best := make(map[string]candidate)
	var mu sync.Mutex
	if err := eachEndpoint(members, func(_ int, ep string) error {
		shards, err := r.replicaShards(ctx, ep)
		if err != nil {
			return fmt.Errorf("cluster: rescue orphans: shards at %s: %w", ep, err)
		}
		for _, primary := range shards {
			si, err := r.shardInfoAt(ctx, ep, primary)
			if err != nil {
				return fmt.Errorf("cluster: rescue orphans: shard %s at %s: %w", primary, ep, err)
			}
			mu.Lock()
			for _, ni := range si.Names {
				if bound[ni.Name] {
					continue
				}
				cur, ok := best[ni.Name]
				if !ok || betterCandidate(ep, ni, cur.ep, cur.ni) {
					best[ni.Name] = candidate{ep: ep, primary: primary, ni: ni}
				}
			}
			mu.Unlock()
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if len(best) == 0 {
		return 0, nil
	}
	byWinner := make(map[pairKey][]string) // (holder, shard primary) -> names
	for name, c := range best {
		k := pairKey{c.ep, c.primary}
		byWinner[k] = append(byWinner[k], name)
	}
	rescued := 0
	for k, names := range byWinner {
		sort.Strings(names)
		if _, err := r.dir.peer.Call(ctx, ReplicaRef(k.src), "Promote", k.dst, names, epoch); err != nil {
			return rescued, fmt.Errorf("cluster: rescue orphans: promote on %s: %w", k.src, err)
		}
		rescued += len(names)
	}
	return rescued, nil
}

func betterCandidate(ep string, ni NameInfo, curEp string, cur NameInfo) bool {
	if ni.Seeded != cur.Seeded {
		return ni.Seeded
	}
	if ni.SeedEpoch != cur.SeedEpoch {
		return ni.SeedEpoch > cur.SeedEpoch
	}
	if ni.Applied != cur.Applied {
		return ni.Applied > cur.Applied
	}
	if ni.Epoch != cur.Epoch {
		return ni.Epoch > cur.Epoch
	}
	return ep < curEp
}
