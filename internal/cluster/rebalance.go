package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Rebalancer re-shards a live cluster when its membership changes: after an
// Add it drains the keys the new ring routes to the new server, after a
// Remove it drains everything off the departing server, migrating bindings
// (and object state, for Movable types) from old home to new home.
//
// The moves themselves are batched through BRMI: per (source, destination)
// pair one multi-root core.Batch snapshots every moving object in a single
// round trip, one batch restores them all at the destination, and one batch
// departs every moving name at the source — K objects move in 3 round
// trips, not 3K, in copy-then-tombstone order so a partial failure never
// loses state and a retried rebalance converges. Old homes are left with
// wrong-home tombstones (registry forwards + export tombstones) carrying
// the new epoch, so stale callers fail with rmi.WrongHomeError, refresh
// their shard map, and re-route.
//
// The rebalancer assumes every name in each member's registry is
// directory-routed (bound via Directory.Bind); names bound outside the ring
// discipline would be relocated like any other.
type Rebalancer struct {
	dir       *Directory
	perObject bool
	probe     MigrationProbe

	// Migration progress metrics (nil no-ops when uninstrumented).
	migMoved     *stats.Counter // cluster.migration_moved
	migRemaining *stats.Gauge   // cluster.migration_remaining
}

// RebalanceOption configures a Rebalancer.
type RebalanceOption func(*Rebalancer)

// MigrationStage identifies one batched trip of a (source, destination)
// migration flow, in execution order: snapshot (read the moving state off
// the source), arrive (adopt copies at the destination), depart (install
// the tombstones at the source).
type MigrationStage string

// The three trips of a migration flow, plus the two replication flows: a
// promote trip turns a follower's shadows authoritative during failover
// (src is the dead primary, dst the promoting survivor), and a place trip
// (re)installs one primary's snapshots at one follower after a membership
// change (src is the primary, dst the follower).
const (
	StageSnapshot MigrationStage = "snapshot"
	StageArrive   MigrationStage = "arrive"
	StageDepart   MigrationStage = "depart"
	StagePromote  MigrationStage = "promote"
	StagePlace    MigrationStage = "place"
)

// MigrationProbe observes a migration flow immediately before each of its
// batched trips. Returning an error aborts the flow at exactly that point,
// leaving the same partial state a real fault there would — which is what
// fault-injection tests and the chaos harness use it for: cutting a
// migration between its copy and tombstone trips and asserting that a
// retried AddServer/RemoveServer converges with no lost or duplicated
// objects. names lists every name of the flow, non-movable bindings
// included (under WithPerObjectMigration the probe fires per object with a
// single-name slice).
type MigrationProbe func(stage MigrationStage, src, dst string, names []string) error

// WithMigrationProbe installs a probe on every migration flow the
// rebalancer runs.
func WithMigrationProbe(p MigrationProbe) RebalanceOption {
	return func(r *Rebalancer) { r.probe = p }
}

// probeStage consults the installed probe, if any.
func (r *Rebalancer) probeStage(stage MigrationStage, src, dst string, moves []move) error {
	if r.probe == nil {
		return nil
	}
	names := make([]string, len(moves))
	for i, m := range moves {
		names[i] = m.name
	}
	return r.probe(stage, src, dst, names)
}

// probeNames is probeStage for flows that carry bare names (promotion and
// replica placement).
func (r *Rebalancer) probeNames(stage MigrationStage, src, dst string, names []string) error {
	if r.probe == nil {
		return nil
	}
	return r.probe(stage, src, dst, names)
}

// WithPerObjectMigration disables migration batching: every moving object
// pays its own snapshot/depart/arrive round trips. This is the ablation
// baseline the rebalance benchmark measures BRMI-batched migration against;
// production callers should never want it.
func WithPerObjectMigration() RebalanceOption {
	return func(r *Rebalancer) { r.perObject = true }
}

// NewRebalancer creates a rebalancer over the directory's ring and servers.
func NewRebalancer(dir *Directory, opts ...RebalanceOption) *Rebalancer {
	r := &Rebalancer{dir: dir}
	for _, o := range opts {
		o(r)
	}
	if reg := dir.peer.Stats(); reg != nil {
		r.migMoved = reg.Counter("cluster.migration_moved")
		r.migRemaining = reg.Gauge("cluster.migration_remaining")
	}
	return r
}

// RebalanceStats summarizes one membership change.
type RebalanceStats struct {
	// Epoch is the ring epoch after the change.
	Epoch uint64
	// Moved is how many names changed home.
	Moved int
	// Pairs is how many (source, destination) migration flows ran.
	Pairs int
	// Promoted is how many names were recovered from follower shadows:
	// failover elections (FailoverServer) and orphan rescues (AddServer).
	Promoted int
}

// move is one name leaving its old home, with the reference it was bound to.
type move struct {
	name string
	ref  wire.Ref
}

// pairKey identifies one migration flow.
type pairKey struct{ src, dst string }

// AddServer grows the cluster: the endpoint joins the ring (bumping the
// epoch), the new membership is broadcast to every node, and the keys the
// new ring routes to the new server are migrated there. The endpoint must
// already be serving with a registry, a BRMI executor, and a cluster node
// service.
//
// AddServer is idempotent and retryable: calling it for an existing member
// does not bump the epoch but still re-broadcasts the ring state and
// migrates any keys not yet at their ring-assigned home — so a run that
// failed partway (a node transiently unreachable, say) is completed by
// simply calling it again.
func (r *Rebalancer) AddServer(ctx context.Context, endpoint string) (*RebalanceStats, error) {
	// Adopt the cluster's authoritative epoch before minting the next one:
	// a rebalancer whose directory was built fresh against a long-lived
	// cluster would otherwise broadcast an epoch every node rejects.
	if err := r.dir.Refresh(ctx); err != nil {
		return nil, err
	}
	ring := r.dir.Ring()
	joined := ring.Contains(endpoint)
	// Plan and migrate against the grown target ring while the live ring
	// keeps serving the old routes (mirroring RemoveServer's drain): with
	// copy-then-tombstone migration, a name stays reachable at its old home
	// until its new home holds it, so clients on the old ring never hit a
	// NotBound window. (A client that explicitly refreshes mid-migration
	// adopts the broadcast grown ring early and can transiently see
	// NotBound for a not-yet-arrived name — see DESIGN.md, "In-flight
	// windows".) The live ring adopts the new membership only after the
	// migration lands.
	target := ring
	epoch := ring.Epoch()
	if !joined {
		target = NewRing(append(ring.Endpoints(), endpoint),
			WithVirtualNodes(ring.vnodes), WithReplication(ring.Replication()))
		epoch++
	}
	members := target.Endpoints()
	// Seed the target ring's follower sets BEFORE the membership broadcast
	// flips routing: a membership change can reassign a key's follower slot,
	// and until the new follower holds a seeded shadow the key's primary is
	// a single point of state loss — exactly in the window where the change
	// itself may die. Non-moving names are still serving at their current
	// primaries here, so their new followers install cleanly; moving names
	// are seeded by their migration flow (placeMoves). Stamped with the
	// CURRENT epoch: an aborted change must not leave future-stamped shadows
	// that could outrank a live follower in a later election.
	if err := r.placeReplicas(ctx, ring.Endpoints(), target, ring.Epoch()); err != nil {
		return nil, err
	}
	// Broadcast before migrating: the tombstones the migration leaves behind
	// point stale callers at the nodes for a fresh ring, so the nodes must
	// know the new membership by the time the first tombstone exists.
	if err := r.broadcast(ctx, members, members, epoch); err != nil {
		return nil, err
	}
	// Names may survive only as replica shadows — their primary was killed
	// while every seeded follower was outside the ring (a failover election
	// consults ring survivors only), and this very call may be re-admitting
	// the holder. Re-bind them at their best shadow before planning, so the
	// migration below drains them to their ring homes like any other name.
	rescued, err := r.rescueOrphans(ctx, members, epoch)
	if err != nil {
		return nil, err
	}
	// Scan every member (not just the pre-change set): on a retry, the plan
	// is whatever is still mis-homed.
	plan, moved, err := r.plan(ctx, members, target)
	if err != nil {
		return nil, err
	}
	if err := r.migrate(ctx, plan, target, epoch); err != nil {
		return nil, err
	}
	if err := r.placeReplicas(ctx, members, target, epoch); err != nil {
		return nil, err
	}
	if !joined {
		ring.Add(endpoint)
	}
	return &RebalanceStats{Epoch: epoch, Moved: moved, Pairs: len(plan), Promoted: rescued}, nil
}

// RemoveServer shrinks the cluster: every name homed on the endpoint is
// migrated to its new home under the shrunken ring, then the endpoint
// leaves the ring. The new membership is broadcast — to the departing
// server too, so it can still point stragglers at the survivors — BEFORE
// the first tombstone exists, like AddServer, so wrong-home retries during
// the drain find a node that already knows the new epoch. Removing a
// non-member is a no-op once the server is confirmed drained (its manifest
// must be readable and empty of mis-homed names); a run that failed partway
// is completed by calling RemoveServer again — whether the endpoint is
// still a member (already-departed names are no longer in its manifest) or
// already out of the ring (the leftover drain below).
func (r *Rebalancer) RemoveServer(ctx context.Context, endpoint string) (*RebalanceStats, error) {
	// Adopt the cluster's authoritative epoch first, like AddServer.
	if err := r.dir.Refresh(ctx); err != nil {
		return nil, err
	}
	ring := r.dir.Ring()
	if !ring.Contains(endpoint) {
		// Not a member: nothing to remove. A prior RemoveServer may still
		// have failed after the membership broadcast was adopted, so finish
		// draining any names left on the endpoint. The manifest check must
		// surface failures rather than assume the server is gone: a
		// transient error here could hide stranded, tombstone-less names
		// behind a success return.
		epoch := ring.Epoch()
		plan, moved, err := r.plan(ctx, []string{endpoint}, ring)
		if err != nil {
			return nil, fmt.Errorf("cluster: remove %s: cannot confirm the server is drained: %w", endpoint, err)
		}
		if len(plan) == 0 {
			// Still re-run replica placement: a prior run may have migrated
			// everything and died before seeding the followers.
			if err := r.placeReplicas(ctx, ring.Endpoints(), ring, epoch); err != nil {
				return nil, err
			}
			r.dir.setLeaving(endpoint, false)
			return &RebalanceStats{Epoch: epoch}, nil
		}
		if err := r.migrate(ctx, plan, ring, epoch); err != nil {
			return nil, err
		}
		if err := r.placeReplicas(ctx, ring.Endpoints(), ring, epoch); err != nil {
			return nil, err
		}
		r.dir.setLeaving(endpoint, false)
		return &RebalanceStats{Epoch: epoch, Moved: moved, Pairs: len(plan)}, nil
	}
	if ring.Size() == 1 {
		return nil, errors.New("cluster: cannot remove the last server")
	}
	if err := r.guardOrphanedReplicas(ctx, endpoint, ring); err != nil {
		return nil, err
	}
	// Route against the shrunken ring before mutating the live one, so the
	// directory keeps serving lookups for not-yet-moved names during the
	// drain. The epoch of the move is what Remove will bump to.
	var survivors []string
	for _, ep := range ring.Endpoints() {
		if ep != endpoint {
			survivors = append(survivors, ep)
		}
	}
	target := NewRing(survivors, WithVirtualNodes(ring.vnodes), WithReplication(ring.Replication()))
	epoch := ring.Epoch() + 1
	// Seed the survivor ring's follower sets before the broadcast flips
	// routing, at the current epoch — see AddServer for why this must come
	// first and must not carry the next epoch.
	if err := r.placeReplicas(ctx, ring.Endpoints(), target, ring.Epoch()); err != nil {
		return nil, err
	}
	// From the broadcast on, the endpoint is out of the ring but still binds
	// every name it has not departed yet: a failover election must see
	// those bindings, or it would promote an older shadow of the name.
	r.dir.setLeaving(endpoint, true)
	if err := r.broadcast(ctx, append(survivors, endpoint), survivors, epoch); err != nil {
		return nil, err
	}
	plan, moved, err := r.plan(ctx, []string{endpoint}, target)
	if err != nil {
		return nil, err
	}
	if err := r.migrate(ctx, plan, target, epoch); err != nil {
		return nil, err
	}
	if err := r.placeReplicas(ctx, survivors, target, epoch); err != nil {
		return nil, err
	}
	ring.Remove(endpoint)
	r.dir.setLeaving(endpoint, false)
	return &RebalanceStats{Epoch: epoch, Moved: moved, Pairs: len(plan)}, nil
}

// OrphanedShardError refuses a planned removal that would discard the last
// in-ring replicas of a dead shard. The removal is unsafe, not merely
// inconvenient: the departing member holds shadow copies of names whose
// primary already left the ring without failing over, and once the member
// is out the failover election (which consults ring survivors only) can no
// longer see those copies — an acked flush would be lost. Fail over the
// dead primary first, then retry the removal.
type OrphanedShardError struct {
	Endpoint string   // the member whose removal was refused
	Primary  string   // the dead shard whose replicas it holds
	Names    []string // shadowed names with no live binding in the ring
}

func (e *OrphanedShardError) Error() string {
	return fmt.Sprintf("cluster: cannot remove %s: it holds the only in-ring replicas of dead shard %s (%v); fail over %s first",
		e.Endpoint, e.Primary, e.Names, e.Primary)
}

func init() {
	wire.MustRegisterError("cluster.OrphanedShard", &OrphanedShardError{})
}

// guardOrphanedReplicas aborts the removal of endpoint while it shadows a
// shard whose primary is gone from the ring and whose names are not bound
// on any member — un-failed-over state this member may be the last in-ring
// holder of (see OrphanedShardError). Names that ARE bound somewhere are
// stale leftovers of an already-recovered shard and never block removal,
// so a guard trip always clears once the owed failover promotes and
// re-homes the shard's names.
func (r *Rebalancer) guardOrphanedReplicas(ctx context.Context, endpoint string, ring *Ring) error {
	shards, err := r.replicaShards(ctx, endpoint)
	if err != nil {
		return fmt.Errorf("cluster: remove %s: list replica shards: %w", endpoint, err)
	}
	var orphaned []string
	for _, p := range shards {
		if p != endpoint && !ring.Contains(p) {
			orphaned = append(orphaned, p)
		}
	}
	if len(orphaned) == 0 {
		return nil
	}
	names := make(map[string]string) // shadowed name -> its dead primary
	for _, p := range orphaned {
		si, err := r.shardInfoAt(ctx, endpoint, p)
		if err != nil {
			return fmt.Errorf("cluster: remove %s: inspect shard %s: %w", endpoint, p, err)
		}
		for _, ni := range si.Names {
			names[ni.Name] = p
		}
	}
	if len(names) == 0 {
		return nil
	}
	// A binding anywhere in the ring — including on the departing member
	// itself, whose bound names this removal migrates off — means the name
	// is alive and the shadow is a stale leftover.
	members := ring.Endpoints()
	manifests := make([][]Binding, len(members))
	if err := eachEndpoint(members, func(i int, ep string) error {
		var ferr error
		manifests[i], ferr = fetchManifest(ctx, r.dir.peer, ep)
		return ferr
	}); err != nil {
		return fmt.Errorf("cluster: remove %s: check orphaned shards: %w", endpoint, err)
	}
	for _, m := range manifests {
		for _, b := range m {
			delete(names, b.Name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	oerr := &OrphanedShardError{Endpoint: endpoint}
	for _, p := range names {
		if oerr.Primary == "" || p < oerr.Primary {
			oerr.Primary = p
		}
	}
	for name, p := range names {
		if p == oerr.Primary {
			oerr.Names = append(oerr.Names, name)
		}
	}
	sort.Strings(oerr.Names)
	return oerr
}

// replicaShards lists the non-empty replica shards held at endpoint, by
// their primary endpoints.
func (r *Rebalancer) replicaShards(ctx context.Context, endpoint string) ([]string, error) {
	res, err := r.dir.peer.Call(ctx, ReplicaRef(endpoint), "Shards")
	if err != nil {
		return nil, err
	}
	var shards []string
	if len(res) == 1 {
		// The wire layer decodes a []string result as []any of strings.
		switch v := res[0].(type) {
		case []string:
			shards = v
		case []any:
			for _, e := range v {
				if s, ok := e.(string); ok {
					shards = append(shards, s)
				}
			}
		}
	}
	return shards, nil
}

// shardInfoAt reads endpoint's view of primary's shard. Never nil on a nil
// error.
func (r *Rebalancer) shardInfoAt(ctx context.Context, endpoint, primary string) (*ShardInfo, error) {
	res, err := r.dir.peer.Call(ctx, ReplicaRef(endpoint), "ShardInfo", primary)
	if err != nil {
		return nil, err
	}
	if len(res) == 1 {
		if si, ok := res[0].(*ShardInfo); ok && si != nil {
			return si, nil
		}
	}
	return &ShardInfo{Primary: primary}, nil
}

// plan reads each source server's name table (one Manifest round trip per
// server, in parallel) and groups the names the routing ring sends
// elsewhere into per-(source, destination) move lists.
func (r *Rebalancer) plan(ctx context.Context, sources []string, routing *Ring) (map[pairKey][]move, int, error) {
	manifests := make([][]Binding, len(sources))
	err := eachEndpoint(sources, func(i int, src string) error {
		var ferr error
		manifests[i], ferr = fetchManifest(ctx, r.dir.peer, src)
		return ferr
	})
	if err != nil {
		return nil, 0, err
	}
	plan := make(map[pairKey][]move)
	moved := 0
	for i, src := range sources {
		for _, b := range manifests[i] {
			dst := routing.Route(b.Name)
			if dst == "" || dst == src {
				continue
			}
			plan[pairKey{src, dst}] = append(plan[pairKey{src, dst}], move{name: b.Name, ref: b.Ref})
			moved++
		}
	}
	return plan, moved, nil
}

// fetchManifest calls Node.Manifest on endpoint and decodes the table.
func fetchManifest(ctx context.Context, peer *rmi.Peer, endpoint string) ([]Binding, error) {
	res, err := peer.Call(ctx, NodeRef(endpoint), "Manifest")
	if err != nil {
		return nil, fmt.Errorf("cluster: manifest %s: %w", endpoint, err)
	}
	if len(res) == 0 || res[0] == nil {
		return nil, nil
	}
	generic, ok := res[0].([]any)
	if !ok {
		return nil, fmt.Errorf("cluster: manifest %s: unexpected result %T", endpoint, res[0])
	}
	out := make([]Binding, 0, len(generic))
	for _, v := range generic {
		b, ok := v.(*Binding)
		if !ok {
			return nil, fmt.Errorf("cluster: manifest %s: unexpected element %T", endpoint, v)
		}
		out = append(out, *b)
	}
	return out, nil
}

// migrate runs every (source, destination) flow of the plan, flows in
// parallel. routing is the target ring the plan was computed against: when
// it replicates, each flow seeds its names' new followers before the source
// is tombstoned (see migratePair).
func (r *Rebalancer) migrate(ctx context.Context, plan map[pairKey][]move, routing *Ring, epoch uint64) error {
	if len(plan) == 0 {
		return nil
	}
	// Migration progress: the remaining gauge counts down as flows land, so
	// an ops view polled mid-rebalance sees the drain advance; the moved
	// counter accumulates across rebalances.
	for _, moves := range plan {
		r.migRemaining.Add(int64(len(moves)))
	}
	errs := make([]error, 0, len(plan))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for pair, moves := range plan {
		wg.Add(1)
		go func(pair pairKey, moves []move) {
			defer wg.Done()
			var err error
			if r.perObject {
				err = r.migratePairPerObject(ctx, pair.src, pair.dst, moves, routing, epoch)
			} else {
				err = r.migratePair(ctx, pair.src, pair.dst, moves, routing, epoch)
			}
			r.migRemaining.Add(-int64(len(moves)))
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("cluster: migrate %s -> %s: %w", pair.src, pair.dst, err))
				mu.Unlock()
			} else {
				r.migMoved.Add(uint64(len(moves)))
			}
		}(pair, moves)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// migratePair moves one (source, destination) flow in three batched round
// trips, ordered copy-then-tombstone so a failure at any point is
// recoverable by retrying AddServer/RemoveServer:
//
//  1. a multi-root core.Batch on the source — one root per moving Movable
//     object — records every Snapshot;
//  2. a batch on the destination node records an Arrive per name, splicing
//     in the snapshot values (idempotent: an already-adopted copy is kept);
//  3. when the ring replicates, the same snapshots are installed at each
//     name's new followers (placeMoves) — the destination's shard must have
//     seeded replicas BEFORE the source copy is destroyed, or a state-loss
//     kill of the destination in the window before the rebalance's final
//     placement pass would hold the only copy of every moved name;
//  4. a batch on the source node records a Depart per name, installing the
//     wrong-home forwards and export tombstones.
//
// K objects move in three round trips (plus one per follower), not 3K.
// Until the depart lands both homes hold the name — stale-ring writes in
// that window land on the old copy and are superseded by the tombstone —
// whereas tombstoning first would destroy the only copy of the state if the
// arrive trip failed.
func (r *Rebalancer) migratePair(ctx context.Context, src, dst string, moves []move, routing *Ring, epoch uint64) error {
	peer := r.dir.peer

	if err := r.probeStage(StageSnapshot, src, dst, moves); err != nil {
		return err
	}
	movable := make([]bool, len(moves))
	states := make([]*core.Future, len(moves))
	var sb *core.Batch
	for i, m := range moves {
		if !movableAt(m.ref, src) {
			continue
		}
		movable[i] = true
		if sb == nil {
			// The K snapshot roots are independent objects; the executor may
			// replay them concurrently (per-root order preserved).
			//brmivet:ignore unflushed sb is flushed below under the same sb != nil guard that created it
			sb = core.New(peer, NodeRef(src), core.WithParallelRoots())
		}
		p, err := sb.AddRoot(m.ref)
		if err != nil {
			return err
		}
		states[i] = p.Call("Snapshot")
	}
	if sb != nil {
		if err := sb.Flush(ctx); err != nil {
			return fmt.Errorf("snapshot batch: %w", err)
		}
	}

	if err := r.probeStage(StageArrive, src, dst, moves); err != nil {
		return err
	}
	ab := core.New(peer, NodeRef(dst))
	anode := ab.Root()
	arrives := make([]*core.Future, len(moves))
	for i, m := range moves {
		var state any
		if states[i] != nil {
			v, err := states[i].Get()
			if err != nil {
				return fmt.Errorf("snapshot %q: %w", m.name, err)
			}
			state = v
		}
		arrives[i] = anode.Call("Arrive", m.name, m.ref.Iface, movable[i], state, m.ref)
	}
	if err := ab.Flush(ctx); err != nil {
		return fmt.Errorf("arrive batch: %w", err)
	}
	for i, m := range moves {
		if err := arrives[i].Err(); err != nil {
			return fmt.Errorf("arrive %q: %w", m.name, err)
		}
	}

	if err := r.placeMoves(ctx, dst, moves, movable, states, routing, epoch); err != nil {
		return err
	}

	if err := r.probeStage(StageDepart, src, dst, moves); err != nil {
		return err
	}
	db := core.New(peer, NodeRef(src))
	dnode := db.Root()
	departs := make([]*core.Future, len(moves))
	for i, m := range moves {
		departs[i] = dnode.Call("Depart", m.name, epoch)
	}
	if err := db.Flush(ctx); err != nil {
		return fmt.Errorf("depart batch: %w", err)
	}
	for i, m := range moves {
		if err := departs[i].Err(); err != nil {
			return fmt.Errorf("depart %q: %w", m.name, err)
		}
	}
	return nil
}

// migratePairPerObject is the unbatched ablation: every moving object pays
// its own snapshot, arrive, follower-install, and depart round trips,
// sequentially, in the same copy-then-tombstone order as the batched flow.
func (r *Rebalancer) migratePairPerObject(ctx context.Context, src, dst string, moves []move, routing *Ring, epoch uint64) error {
	peer := r.dir.peer
	for _, m := range moves {
		one := []move{m}
		var state any
		movable := movableAt(m.ref, src)
		// Probe the snapshot stage for non-movable objects too: the batched
		// path fires it once per flow regardless of movability, and a probe
		// cutting "the flow containing name X" must behave the same under
		// the per-object ablation.
		if err := r.probeStage(StageSnapshot, src, dst, one); err != nil {
			return err
		}
		if movable {
			res, err := peer.Call(ctx, m.ref, "Snapshot")
			if err != nil {
				return fmt.Errorf("snapshot %q: %w", m.name, err)
			}
			if len(res) > 0 {
				state = res[0]
			}
		}
		if err := r.probeStage(StageArrive, src, dst, one); err != nil {
			return err
		}
		if _, err := peer.Call(ctx, NodeRef(dst), "Arrive", m.name, m.ref.Iface, movable, state, m.ref); err != nil {
			return fmt.Errorf("arrive %q: %w", m.name, err)
		}
		if movable && routing.Replication() > 1 {
			if owners, _ := routing.Owners(m.name); len(owners) >= 2 && owners[0] == dst {
				for _, f := range owners[1:] {
					if err := r.probeNames(StagePlace, dst, f, []string{m.name}); err != nil {
						return err
					}
					if _, err := peer.Call(ctx, ReplicaRef(f), "Install", m.name, m.ref.Iface, state, dst, epoch); err != nil {
						return fmt.Errorf("install %q at %s: %w", m.name, f, err)
					}
				}
			}
		}
		if err := r.probeStage(StageDepart, src, dst, one); err != nil {
			return err
		}
		if _, err := peer.Call(ctx, NodeRef(src), "Depart", m.name, epoch); err != nil {
			return fmt.Errorf("depart %q: %w", m.name, err)
		}
	}
	return nil
}

// movableAt reports whether ref is a user object hosted on endpoint whose
// type has a registered movable factory — i.e. its state can be snapshotted
// off that server.
func movableAt(ref wire.Ref, endpoint string) bool {
	if ref.Endpoint != endpoint || ref.ObjID < rmi.FirstUserObjID {
		return false
	}
	_, ok := movableFactory(ref.Iface)
	return ok
}

// broadcast pushes the ring state (members at epoch) to every recipient
// node in parallel. Recipients may include servers outside the new
// membership — a removed server keeps answering stragglers, so it needs the
// fresh state too.
func (r *Rebalancer) broadcast(ctx context.Context, recipients, members []string, epoch uint64) error {
	snap := &RingSnapshot{Members: members, Epoch: epoch}
	return eachEndpoint(recipients, func(_ int, ep string) error {
		if _, err := r.dir.peer.Call(ctx, NodeRef(ep), "SetRing", snap); err != nil {
			return fmt.Errorf("cluster: set ring on %s: %w", ep, err)
		}
		return nil
	})
}
