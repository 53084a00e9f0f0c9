package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
)

// Streaming bulk reads across the cluster (the Get-Batch workload).
//
// GetBatch turns N named reads into ONE stream request per destination
// server: names route to their home endpoint by the directory's ring, group
// by home, and each group ships its names as a single core.GetBatch stream
// executed in parallel with the others. Each home server resolves the names
// in its own registry while it streams, so no lookup precedes the streams. The returned Stream is the client-side assembler: it
// merges the per-destination streams back into exact request order,
// delivering entry i while later entries are still in flight. With
// replicated shards (WithReadReplicas) the planner spreads reads over each
// name's owner list, reading follower shadows where a seeded replica
// exists and falling back to the primary where not.

// StreamEntry is one delivered result of a cluster GetBatch: the request
// position, the name read, and its value or per-name failure. A failed
// destination fails its own entries; other destinations keep streaming.
type StreamEntry struct {
	Index int
	Name  string
	Value any
	Err   error
}

// GetBatchOption configures a cluster GetBatch.
type GetBatchOption func(*getBatchOpts)

type getBatchOpts struct {
	method       string
	readReplicas bool
}

// WithGetMethod reads each object through the named no-argument accessor
// instead of its Movable snapshot.
func WithGetMethod(method string) GetBatchOption {
	return func(o *getBatchOpts) { o.method = method }
}

// WithReadReplicas spreads the read set across each name's owner list
// (primary + followers, see Directory.Owners): follower shadows kept fresh
// by the replication log serve their share of the batch, multiplying read
// bandwidth. Shadow reads are slightly stale by the records still in
// flight to that follower; callers needing read-your-writes leave this
// off.
func WithReadReplicas() GetBatchOption {
	return func(o *getBatchOpts) { o.readReplicas = true }
}

// destBatch is the per-destination slice of the request, in request order:
// global indexes, and per entry either a name for the server to resolve or
// (a follower shadow read) an object id with an empty name.
type destBatch struct {
	endpoint string
	objIDs   []uint64
	names    []string
	indexes  []int64
}

// destGroups groups entries into per-destination batches, preserving
// request order within each; dests lists them by first appearance.
type destGroups struct {
	byDest map[string]*destBatch
	dests  []*destBatch
}

// add appends entry i, read at endpoint by name or object id.
func (g *destGroups) add(endpoint string, i int, objID uint64, name string) {
	db := g.byDest[endpoint]
	if db == nil {
		if g.byDest == nil {
			g.byDest = make(map[string]*destBatch)
		}
		db = &destBatch{endpoint: endpoint}
		g.byDest[endpoint] = db
		g.dests = append(g.dests, db)
	}
	db.objIDs = append(db.objIDs, objID)
	db.names = append(db.names, name)
	db.indexes = append(db.indexes, int64(i))
}

// Stream delivers a cluster GetBatch strictly in request order. Entries
// arriving out of global order (a fast destination running ahead) buffer
// until the gap fills; cluster.getbatch_buffer gauges that backlog.
type Stream struct {
	cancel context.CancelFunc
	depth  *stats.Gauge
	wg     sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond // signaled on deliver and Close
	buf    map[int]*StreamEntry
	next   int
	total  int
	closed bool
}

// GetBatch issues one ordered bulk read of names across the cluster. The
// caller must drain the stream to io.EOF or Close it. Every name goes to its
// home server as part of that server's single stream request and resolves
// there, so a name that is not bound fails at read time, as its own entry's
// Err (*registry.NotBoundError) — never as a global failure. An entry whose
// name migrated since the directory last saw the ring (*rmi.WrongHomeError)
// is re-issued once, after one ring refresh shared by all such entries, and
// still delivered in request order.
func GetBatch(ctx context.Context, p *rmi.Peer, d *Directory, names []string, opts ...GetBatchOption) (*Stream, error) {
	var o getBatchOpts
	for _, op := range opts {
		op(&o)
	}

	endpoints := make([]string, len(names))
	objIDs := make([]uint64, len(names))
	routeErrs := make([]error, len(names))
	for i, name := range names {
		if name == "" {
			routeErrs[i] = &registry.NotBoundError{Name: name}
			continue
		}
		endpoints[i], routeErrs[i] = d.Home(name)
	}
	if o.readReplicas && d.Replication() > 1 {
		spreadOverReplicas(ctx, p, d, names, endpoints, objIDs, routeErrs)
	}

	var groups destGroups
	for i, name := range names {
		if routeErrs[i] != nil {
			continue
		}
		if objIDs[i] != 0 {
			name = "" // a follower shadow, addressed by id
		}
		groups.add(endpoints[i], i, objIDs[i], name)
	}

	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		cancel: cancel,
		buf:    make(map[int]*StreamEntry),
		total:  len(names),
	}
	s.cond = sync.NewCond(&s.mu)
	if reg := p.Stats(); reg != nil {
		s.depth = reg.Gauge("cluster.getbatch_buffer")
	}
	for i, err := range routeErrs {
		if err != nil {
			s.deliver(&StreamEntry{Index: i, Name: names[i], Err: err})
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run(sctx, p, d, groups.dests, names, o.method)
	}()
	return s, nil
}

// run streams every destination in parallel, then re-issues the entries
// that failed wrong-home: one coalesced ring refresh, the moved names
// regrouped by their new homes, one stream per new home. A second
// wrong-home failure is delivered as the entry's Err.
func (s *Stream) run(ctx context.Context, p *rmi.Peer, d *Directory, dests []*destBatch, names []string, method string) {
	var (
		mu    sync.Mutex
		moved []*StreamEntry
	)
	s.streamAll(dests, func(db *destBatch) {
		if m := s.runDest(ctx, p, db, names, method, true); len(m) > 0 {
			mu.Lock()
			moved = append(moved, m...)
			mu.Unlock()
		}
	})
	if len(moved) == 0 {
		return
	}
	if err := d.Refresh(ctx); err != nil {
		for _, e := range moved {
			e.Err = fmt.Errorf("%w (ring refresh failed: %v)", e.Err, err)
			s.deliver(e)
		}
		return
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i].Index < moved[j].Index })
	var groups destGroups
	for _, e := range moved {
		home, err := d.Home(e.Name)
		if err != nil {
			e.Err = err
			s.deliver(e)
			continue
		}
		groups.add(home, e.Index, 0, e.Name)
	}
	s.streamAll(groups.dests, func(db *destBatch) { s.runDest(ctx, p, db, names, method, false) })
}

// streamAll runs fn once per destination, concurrently, and waits.
func (s *Stream) streamAll(dests []*destBatch, fn func(*destBatch)) {
	var wg sync.WaitGroup
	for _, db := range dests {
		wg.Add(1)
		go func(db *destBatch) {
			defer wg.Done()
			fn(db)
		}(db)
	}
	wg.Wait()
}

// spreadOverReplicas rewrites a slice of the read set onto follower
// shadows: each name picks an owner by its request position, and followers
// report (one ShadowIDs call per follower/primary pair) which of their
// assigned names have a seeded, live shadow. Names without one — and any
// follower that cannot be asked — stay on the primary. Best-effort by
// design: failure here costs spreading, never correctness.
func spreadOverReplicas(ctx context.Context, p *rmi.Peer, d *Directory, names []string, endpoints []string, objIDs []uint64, routeErrs []error) {
	type replicaGroup struct {
		primary string
		names   []string
		pos     []int
	}
	groups := make(map[string]*replicaGroup) // key: follower + "\x00" + primary
	epoch := d.Epoch()
	for i, name := range names {
		if routeErrs[i] != nil {
			continue
		}
		owners, _ := d.Owners(name)
		if len(owners) < 2 || owners[0] != endpoints[i] {
			// Not replicated, or the ring moved under the routing pass;
			// don't second-guess it.
			continue
		}
		pick := owners[i%len(owners)]
		if pick == endpoints[i] {
			continue
		}
		key := pick + "\x00" + owners[0]
		g := groups[key]
		if g == nil {
			g = &replicaGroup{primary: owners[0]}
			groups[key] = g
		}
		g.names = append(g.names, name)
		g.pos = append(g.pos, i)
	}
	for key, g := range groups {
		follower := key[:len(key)-len(g.primary)-1]
		results, err := p.Call(ctx, ReplicaRef(follower), "ShadowIDs", g.primary, g.names, epoch)
		if err != nil || len(results) == 0 {
			continue
		}
		ids, ok := results[0].([]any)
		if !ok || len(ids) != len(g.names) {
			continue
		}
		for j, pos := range g.pos {
			if id, ok := ids[j].(uint64); ok && id != 0 {
				endpoints[pos], objIDs[pos] = follower, id
			}
		}
	}
}

// runDest drains one destination's sub-stream into the assembler. The
// per-server stream is ordered, so entries pair with the sub-batch's
// indexes positionally; a destination failing mid-stream fails exactly its
// undelivered remainder. With holdMoved, entries that failed wrong-home are
// returned for re-issue instead of delivered.
func (s *Stream) runDest(ctx context.Context, p *rmi.Peer, db *destBatch, names []string, method string, holdMoved bool) (moved []*StreamEntry) {
	failFrom := func(cursor int, err error) {
		for _, gi := range db.indexes[cursor:] {
			s.deliver(&StreamEntry{Index: int(gi), Name: names[gi], Err: err})
		}
	}
	gs, err := core.GetBatch(ctx, p, db.endpoint, db.objIDs, db.indexes, method, db.names)
	if err != nil {
		failFrom(0, err)
		return
	}
	defer gs.Close()
	cursor := 0
	for cursor < len(db.indexes) {
		entry, err := gs.Next()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("cluster: getbatch: %s ended after %d of %d entries", db.endpoint, cursor, len(db.indexes))
			}
			failFrom(cursor, err)
			return
		}
		want := db.indexes[cursor]
		if entry.Index != want {
			failFrom(cursor, fmt.Errorf("cluster: getbatch: %s delivered index %d, want %d", db.endpoint, entry.Index, want))
			return
		}
		se := &StreamEntry{Index: int(want), Name: names[want], Value: entry.Value, Err: entry.Err}
		var wrong *rmi.WrongHomeError
		if holdMoved && errors.As(entry.Err, &wrong) {
			moved = append(moved, se)
		} else {
			s.deliver(se)
		}
		cursor++
	}
	return moved
}

// deliver hands one entry to the assembler.
func (s *Stream) deliver(e *StreamEntry) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.buf[e.Index] = e
	s.depth.Set(int64(len(s.buf)))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Next returns the next entry in request order, blocking while its
// destination is still streaming; io.EOF after the last. Per-name failures
// arrive as the entry's Err, never as Next's.
func (s *Stream) Next() (*StreamEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, rmi.ErrClosed
		}
		if s.next >= s.total {
			return nil, io.EOF
		}
		if e, ok := s.buf[s.next]; ok {
			delete(s.buf, s.next)
			s.next++
			s.depth.Set(int64(len(s.buf)))
			return e, nil
		}
		s.cond.Wait()
	}
}

// Close abandons the stream, canceling every in-flight destination.
// Safe to call repeatedly and after EOF.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.buf = make(map[int]*StreamEntry)
	s.depth.Set(0)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}
