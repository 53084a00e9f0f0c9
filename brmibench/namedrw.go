package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/rcache"
)

// named-rw: epoch-aware cluster batches over named accounts on a simulated
// 4 ms WAN, two servers with replication degree 2 and one shared lease
// cache. It covers what hot-echo bypasses: directory lookups on the record
// path, cache hits and write invalidation, the stage planner, replica
// shipping and quorum.

const (
	rwAccounts  = 256
	rwReadNames = 8    // accounts one read touches
	rwOpsPerCli = 4000 // generated operations per client, cycled
)

// Operation kinds of the mix: 80% read, 10% deposit, 10% transfer.
const (
	rwRead = iota
	rwDeposit
	rwTransfer
)

type rwOp struct {
	kind  int
	accts []uint8 // read: rwReadNames accounts; deposit: 2; transfer: from, to
}

type rwInputs struct {
	names []string
	init  []int64
	ops   [][]rwOp // per client
}

func prepareNamedRW(seed int64) deployFunc {
	rng := rand.New(rand.NewSource(seed))
	in := &rwInputs{names: make([]string, rwAccounts), init: make([]int64, rwAccounts)}
	for a := range in.names {
		in.names[a] = fmt.Sprintf("acct-%03d", a)
		in.init[a] = 1000 + rng.Int63n(1000)
	}
	// Every block of ten operations holds exactly eight reads, one deposit
	// and one transfer in seeded order, so the mix itself does not vary
	// from seed to seed; only the order and the accounts do.
	block := []int{rwRead, rwRead, rwRead, rwRead, rwRead, rwRead, rwRead, rwRead, rwDeposit, rwTransfer}
	in.ops = make([][]rwOp, clients)
	for c := range in.ops {
		in.ops[c] = make([]rwOp, 0, rwOpsPerCli)
		for len(in.ops[c]) < rwOpsPerCli {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			for _, kind := range block {
				n := 2
				if kind == rwRead {
					n = rwReadNames
				}
				in.ops[c] = append(in.ops[c], rwOp{kind: kind, accts: pick(rng, rwAccounts, n)})
			}
		}
	}
	return func(ctx context.Context, regs *registries) (deployment, error) {
		return deployNamedRW(ctx, in, regs)
	}
}

// pick draws k distinct indexes below n (at most 256), compactly: the
// generated inputs stay small next to the heap the benchmark measures.
func pick(rng *rand.Rand, n, k int) []uint8 {
	out := make([]uint8, k)
	for i, v := range rng.Perm(n)[:k] {
		out[i] = uint8(v)
	}
	return out
}

type rwDeployment struct {
	*simCluster
	in    *rwInputs
	cache *rcache.Cache

	// The model. credits and debits count units sent to each account
	// before the flush that carries them, so any balance the system
	// reports must lie within [init-debits, init+credits]. net holds the
	// acknowledged change; deposited the acknowledged deposit units.
	credits, debits, net []atomic.Int64
	deposited            atomic.Int64
}

func deployNamedRW(ctx context.Context, in *rwInputs, regs *registries) (deployment, error) {
	sc, err := startSimCluster(2, 2, regs)
	if err != nil {
		return nil, fmt.Errorf("deploy named-rw: %w", err)
	}
	for a, name := range in.names {
		if err := sc.bind(ctx, name, &Account{bal: in.init[a]}, accountIface); err != nil {
			sc.close()
			return nil, fmt.Errorf("deploy named-rw: bind %s: %w", name, err)
		}
	}
	if err := sc.seedReplicas(ctx); err != nil {
		sc.close()
		return nil, fmt.Errorf("deploy named-rw: seed replicas: %w", err)
	}
	return &rwDeployment{
		simCluster: sc,
		in:         in,
		cache:      cluster.NewCache(sc.client, sc.dir),
		credits:    make([]atomic.Int64, rwAccounts),
		debits:     make([]atomic.Int64, rwAccounts),
		net:        make([]atomic.Int64, rwAccounts),
	}, nil
}

// checkBalance tests a reported balance against the model's bounds.
func (d *rwDeployment) checkBalance(a uint8, v any) error {
	bal, ok := v.(int64)
	if !ok {
		return fmt.Errorf("%s: balance %v (%T), want int64", d.in.names[a], v, v)
	}
	lo, hi := d.in.init[a]-d.debits[a].Load(), d.in.init[a]+d.credits[a].Load()
	if bal < lo || bal > hi {
		return fmt.Errorf("%s: balance %d outside [%d, %d]", d.in.names[a], bal, lo, hi)
	}
	return nil
}

func (d *rwDeployment) op(ctx context.Context, c, i int, tr *tracer) opResult {
	op := d.in.ops[c][i%len(d.in.ops[c])]
	b := cluster.New(d.client, cluster.WithDirectory(d.dir), cluster.WithCache(d.cache))
	res := opResult{lookups: len(op.accts), flushes: 1, write: op.kind != rwRead}
	proxies := make([]*cluster.Proxy, len(op.accts))
	for k, a := range op.accts {
		t := tr.now()
		p, err := b.RootNamed(ctx, d.in.names[a])
		tr.done(spanRootNamed, t)
		if err != nil {
			res.err = err
			return res
		}
		proxies[k] = p
	}
	futs := make([]*cluster.Future, len(op.accts))
	switch op.kind {
	case rwRead:
		for k, p := range proxies {
			futs[k] = p.CallRO("Balance")
		}
	case rwDeposit:
		for k, p := range proxies {
			d.credits[op.accts[k]].Add(1)
			futs[k] = p.Call("Deposit", int64(1))
		}
	case rwTransfer:
		from, to := op.accts[0], op.accts[1]
		d.debits[from].Add(1)
		d.credits[to].Add(1)
		futs[0] = proxies[0].Call("Withdraw", int64(1))
		futs[1] = proxies[1].Call("Deposit", futs[0])
	}
	res.calls = len(futs)
	t := tr.now()
	err := b.Flush(ctx)
	tr.done(spanClusterFlush, t)
	res.waves = b.Waves()
	if b.StaleRetried() {
		res.stale = 1
	}
	if err != nil {
		res.err = err
		return res
	}
	vals := make([]any, len(futs))
	for k, f := range futs {
		if vals[k], err = f.Get(); err != nil {
			res.err = err
			return res
		}
	}
	switch op.kind {
	case rwRead, rwDeposit:
		for k, a := range op.accts {
			if err := d.checkBalance(a, vals[k]); err != nil {
				res.err = err
				return res
			}
		}
		if op.kind == rwDeposit {
			for _, a := range op.accts {
				d.net[a].Add(1)
			}
			d.deposited.Add(int64(len(op.accts)))
		}
	case rwTransfer:
		if n, ok := vals[0].(int64); !ok || n != 1 {
			res.err = fmt.Errorf("withdraw from %s returned %v, want 1", d.in.names[op.accts[0]], vals[0])
			return res
		}
		if err := d.checkBalance(op.accts[1], vals[1]); err != nil {
			res.err = err
			return res
		}
		d.net[op.accts[0]].Add(-1)
		d.net[op.accts[1]].Add(1)
	}
	return res
}

// verify reads every balance back through one uncached GetBatch: each
// must equal its initial balance plus its acknowledged changes, and the
// total must equal the initial total plus the acknowledged deposits, since
// transfers conserve it.
func (d *rwDeployment) verify(ctx context.Context) error {
	s, err := cluster.GetBatch(ctx, d.client, d.dir, d.in.names, cluster.WithGetMethod("Balance"))
	if err != nil {
		return fmt.Errorf("named-rw final read: %w", err)
	}
	defer s.Close()
	var total, want int64
	for a := range d.in.names {
		e, err := s.Next()
		if err != nil {
			return fmt.Errorf("named-rw final read %d: %w", a, err)
		}
		if e.Err != nil {
			return fmt.Errorf("named-rw final read %s: %w", e.Name, e.Err)
		}
		bal, ok := e.Value.(int64)
		if e.Index != a || !ok || bal != d.in.init[a]+d.net[a].Load() {
			return fmt.Errorf("named-rw final state: entry %d (%s) = %v, want %s = %d",
				e.Index, e.Name, e.Value, d.in.names[a], d.in.init[a]+d.net[a].Load())
		}
		total += bal
		want += d.in.init[a]
	}
	if _, err := s.Next(); err != io.EOF {
		return fmt.Errorf("named-rw final read: stream did not end after %d entries: %v", rwAccounts, err)
	}
	if want += d.deposited.Load(); total != want {
		return fmt.Errorf("named-rw final state: total %d, want %d", total, want)
	}
	return nil
}
