package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// bulk-get: one cluster.GetBatch of 64 distinct named 4 KiB blobs per
// operation on a simulated 4 ms WAN, two servers, no replication. It covers
// the streaming path (transport chunks and credit, the server's getbatch
// service, the ordered assembler) and the per-name lookup fan-out, none of
// which hot-echo touches.

const (
	bgBlobs     = 256
	bgBlobBytes = 4 << 10
	bgPerOp     = 64
	bgOpsPerCli = 2048 // generated operations per client, cycled
)

type bgInputs struct {
	names []string
	blobs [][]byte
	ops   [][][]uint8 // per client: blob indexes of each operation
}

func prepareBulkGet(seed int64) deployFunc {
	rng := rand.New(rand.NewSource(seed))
	in := &bgInputs{names: make([]string, bgBlobs), blobs: make([][]byte, bgBlobs)}
	for k := range in.names {
		in.names[k] = fmt.Sprintf("blob-%03d", k)
		in.blobs[k] = make([]byte, bgBlobBytes)
		rng.Read(in.blobs[k])
	}
	in.ops = make([][][]uint8, clients)
	for c := range in.ops {
		in.ops[c] = make([][]uint8, bgOpsPerCli)
		for i := range in.ops[c] {
			in.ops[c][i] = pick(rng, bgBlobs, bgPerOp)
		}
	}
	return func(ctx context.Context, regs *registries) (deployment, error) {
		return deployBulkGet(ctx, in, regs)
	}
}

type bgDeployment struct {
	*simCluster
	in     *bgInputs
	names  [][]string   // per-client scratch: the names one GetBatch reads
	buffer *stats.Gauge // cluster.getbatch_buffer, traced run only
}

func deployBulkGet(ctx context.Context, in *bgInputs, regs *registries) (deployment, error) {
	sc, err := startSimCluster(2, 1, regs)
	if err != nil {
		return nil, fmt.Errorf("deploy bulk-get: %w", err)
	}
	for k, name := range in.names {
		if err := sc.bind(ctx, name, &Blob{data: in.blobs[k]}, blobIface); err != nil {
			sc.close()
			return nil, fmt.Errorf("deploy bulk-get: bind %s: %w", name, err)
		}
	}
	d := &bgDeployment{simCluster: sc, in: in, names: make([][]string, clients)}
	for c := range d.names {
		d.names[c] = make([]string, bgPerOp)
	}
	if reg := sc.client.Stats(); reg != nil {
		d.buffer = reg.Gauge("cluster.getbatch_buffer")
	}
	return d, nil
}

func (d *bgDeployment) op(ctx context.Context, c, i int, tr *tracer) opResult {
	idx, names := d.in.ops[c][i%len(d.in.ops[c])], d.names[c]
	for k, b := range idx {
		names[k] = d.in.names[b]
	}
	res := opResult{lookups: len(names)}
	t := tr.now()
	s, err := cluster.GetBatch(ctx, d.client, d.dir, names)
	tr.done(spanGetBatch, t)
	if err != nil {
		res.err = err
		return res
	}
	defer s.Close()
	t = tr.now()
	e, err := s.Next()
	tr.done(spanNextFirst, t)
	t = tr.now()
	n := 0
	for ; err == nil; e, err = s.Next() {
		if d.buffer != nil {
			tr.observeBuffer(d.buffer.Get())
		}
		if res.err = d.checkEntry(e, n, names, idx); res.err != nil {
			break
		}
		n++
	}
	tr.done(spanNextRemaining, t)
	res.calls = n
	switch {
	case res.err != nil:
	case err != io.EOF:
		res.err = err
	case n != len(names):
		res.err = fmt.Errorf("getbatch delivered %d entries, want %d", n, len(names))
	}
	return res
}

// checkEntry tests that the n-th delivered entry is the n-th name asked
// for, with its blob's exact bytes.
func (d *bgDeployment) checkEntry(e *cluster.StreamEntry, n int, names []string, idx []uint8) error {
	if n >= len(names) || e.Index != n || e.Name != names[n] {
		return fmt.Errorf("getbatch entry %d is #%d %q, want %q", n, e.Index, e.Name, names[min(n, len(names)-1)])
	}
	if e.Err != nil {
		return fmt.Errorf("getbatch entry %d (%s): %w", n, e.Name, e.Err)
	}
	got, ok := e.Value.([]byte)
	if !ok || !bytes.Equal(got, d.in.blobs[idx[n]]) {
		return fmt.Errorf("getbatch entry %d (%s): wrong bytes (%T, %d)", n, e.Name, e.Value, len(got))
	}
	return nil
}

// verify has nothing left to check: blobs are read-only, and every entry
// was checked for position and bytes as it arrived.
func (d *bgDeployment) verify(context.Context) error { return nil }
