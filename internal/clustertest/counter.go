package clustertest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// CounterIface is the interface name every Counter exports under.
const CounterIface = "clustertest.Counter"

// CounterState is the movable snapshot of a Counter: the running total and
// the full append log, so migration preserves order evidence.
type CounterState struct {
	N   int64
	Log []int64
}

func init() {
	wire.MustRegister("clustertest.counterState", &CounterState{})
	cluster.RegisterMovable(CounterIface, func() rmi.Remote { return &Counter{} })
	rmi.RegisterReadOnly(CounterIface, "Get", "GetAfter")
}

// Counter is the test workload: a remote object whose state makes execution
// order observable (Add returns the running total; the log records every
// applied delta in execution order). It is Movable, so re-sharding carries
// its state — log included — to a new home.
type Counter struct {
	rmi.RemoteBase
	mu  sync.Mutex
	n   int64
	log []int64
}

// NewCounter creates a counter seeded with seed (the seed is not logged).
func NewCounter(seed int64) *Counter { return &Counter{n: seed} }

// Add applies d and returns the running total.
func (c *Counter) Add(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	c.log = append(c.log, d)
	return c.n
}

// Apply is Add with an explicit dataflow edge: dep exists only so that a
// recording can make this call depend on another call's future or proxy
// (the value is ignored). The chaos workload uses it to build staged
// pipelines whose effects remain attributable — the logged token is the
// call's identity, not a derived sum.
func (c *Counter) Apply(token int64, dep any) int64 {
	_ = dep
	return c.Add(token)
}

// Get returns the running total.
func (c *Counter) Get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// GetAfter is Get with an explicit dataflow edge, like Apply: dep only lets
// a recording schedule a readonly call in a later wave than its producer.
func (c *Counter) GetAfter(dep any) int64 {
	_ = dep
	return c.Get()
}

// Self returns the counter as a remote result, so tests can record
// cross-root and cross-server dataflow on its proxy.
func (c *Counter) Self() *Counter { return c }

// Fork returns a fresh counter seeded with seed — a new remote object, so a
// cross-server consumer receives a freshly pinned exported ref.
func (c *Counter) Fork(seed int64) *Counter { return NewCounter(seed) }

// AddRemote adds the value read from another counter, wherever it lives.
// When the source was forwarded from a different server (the staged
// pipeline's by-reference splice), src arrives as a stub and the read is a
// server-to-server call.
func (c *Counter) AddRemote(ctx context.Context, src rmi.Invoker) (int64, error) {
	res, err := src.Invoke(ctx, "Get")
	if err != nil {
		return 0, err
	}
	n, ok := res[0].(int64)
	if !ok {
		return 0, fmt.Errorf("Get returned %T", res[0])
	}
	return c.Add(n), nil
}

// Absorb adds another counter's total into this one without logging (the
// absorbed sum is not a call token); used to exercise a data dependency
// between two batch roots on the same server.
func (c *Counter) Absorb(o *Counter) int64 {
	n := o.Get()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += n
	return c.n
}

// History returns a copy of the applied-delta log in execution order.
func (c *Counter) History() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.log))
	copy(out, c.log)
	return out
}

// Snapshot implements cluster.Movable.
func (c *Counter) Snapshot() (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &CounterState{N: c.n, Log: append([]int64(nil), c.log...)}, nil
}

// Restore implements cluster.Movable.
func (c *Counter) Restore(state any) error {
	s, ok := state.(*CounterState)
	if !ok {
		return fmt.Errorf("restore: unexpected state %T", state)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = s.N
	c.log = append([]int64(nil), s.Log...)
	return nil
}
