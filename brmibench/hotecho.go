package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// hot-echo: core.Batch flushes of Echo calls over real TCP loopback, one
// client goroutine bound to each of two servers. The measured time is
// middleware CPU and the kernel: codec, framing and writev, dispatch and
// executor replay. No directory, cache, staging or streaming is involved.

// echoSizes are the calls per flush; operation i uses echoSizes[i%4].
var echoSizes = [...]int{1, 4, 16, 64}

// echoPayloads is how many distinct payloads each client cycles through.
const echoPayloads = 64

// echoBody is the payload's byte-body length.
const echoBody = 64

func prepareHotEcho(seed int64) deployFunc {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]any, clients)
	for c := range in {
		in[c] = make([]any, echoPayloads)
		for j := range in[c] {
			p := Payload{
				ID:      rng.Int63(),
				Name:    randomName(rng, 24),
				Seq:     rng.Uint64(),
				Data:    make([]byte, echoBody),
				Elapsed: time.Duration(rng.Int63n(int64(time.Second))),
			}
			rng.Read(p.Data)
			in[c][j] = p
		}
	}
	return func(ctx context.Context, regs *registries) (deployment, error) {
		return deployHotEcho(in, regs)
	}
}

// randomName is n lowercase letters drawn from rng.
func randomName(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// loopback is TCP on 127.0.0.1 whose Listen hands out listeners opened in
// advance, so a server serves at the kernel-chosen port its refs carry.
type loopback struct {
	transport.TCPNetwork
	mu        sync.Mutex
	listeners map[string]net.Listener
}

// reserve opens a listener on a free port and returns its endpoint.
func (n *loopback) reserve() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listeners[l.Addr().String()] = l
	return l.Addr().String(), nil
}

// Listen implements transport.Network.
func (n *loopback) Listen(endpoint string) (net.Listener, error) {
	n.mu.Lock()
	l, ok := n.listeners[endpoint]
	delete(n.listeners, endpoint)
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("brmibench: no reserved listener for %s", endpoint)
	}
	return l, nil
}

// close releases listeners no server took over.
func (n *loopback) close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for ep, l := range n.listeners {
		_ = l.Close()
		delete(n.listeners, ep)
	}
}

type echoDeployment struct {
	in      [][]any
	network *loopback
	servers []*rmi.Peer
	execs   []*core.Executor
	refs    []wire.Ref
	client  *rmi.Peer
	futs    [][]*core.Future // per-client scratch
}

func deployHotEcho(in [][]any, regs *registries) (deployment, error) {
	d := &echoDeployment{in: in, network: &loopback{listeners: make(map[string]net.Listener)}}
	fail := func(err error) (deployment, error) {
		d.close()
		return nil, fmt.Errorf("deploy hot-echo: %w", err)
	}
	for s := 0; s < clients; s++ {
		ep, err := d.network.reserve()
		if err != nil {
			return fail(err)
		}
		srv := rmi.NewPeer(d.network, peerOptions(regs.forServer())...)
		d.servers = append(d.servers, srv)
		if err := srv.Serve(ep); err != nil {
			return fail(err)
		}
		exec, err := core.Install(srv)
		if err != nil {
			return fail(err)
		}
		d.execs = append(d.execs, exec)
		ref, err := srv.Export(&Echo{}, echoIface)
		if err != nil {
			return fail(err)
		}
		d.refs = append(d.refs, ref)
	}
	d.client = rmi.NewPeer(d.network, peerOptions(regs.forClient())...)
	for range in {
		d.futs = append(d.futs, make([]*core.Future, echoSizes[len(echoSizes)-1]))
	}
	return d, nil
}

func (d *echoDeployment) op(ctx context.Context, c, i int, tr *tracer) opResult {
	n := echoSizes[i%len(echoSizes)]
	payloads := d.in[c]
	b := core.New(d.client, d.refs[c])
	p := b.Root()
	futs := d.futs[c][:n]
	t := tr.now()
	for j := range futs {
		futs[j] = p.Call("Echo", payloads[(i+j)%len(payloads)])
	}
	tr.done(spanCoreCall, t)
	t = tr.now()
	err := b.Flush(ctx)
	tr.done(spanCoreFlush, t)
	if err != nil {
		return opResult{calls: n, err: err}
	}
	for j, f := range futs {
		v, err := f.Get()
		if err != nil {
			return opResult{calls: n, err: err}
		}
		want := payloads[(i+j)%len(payloads)].(Payload)
		if got, ok := v.(Payload); !ok || !samePayload(got, want) {
			return opResult{calls: n, err: fmt.Errorf("echo %d of %d returned %v, want %v", j, n, v, want)}
		}
	}
	return opResult{calls: n}
}

func samePayload(a, b Payload) bool {
	return a.ID == b.ID && a.Name == b.Name && a.Seq == b.Seq && a.Elapsed == b.Elapsed && bytes.Equal(a.Data, b.Data)
}

// verify has nothing to check at the end: Echo holds no state, and every
// echoed payload was compared as it arrived.
func (d *echoDeployment) verify(context.Context) error { return nil }

func (d *echoDeployment) peer() *rmi.Peer { return d.client }

func (d *echoDeployment) close() {
	if d.client != nil {
		_ = d.client.Close()
	}
	for _, e := range d.execs {
		e.Stop()
	}
	for _, s := range d.servers {
		_ = s.Close()
	}
	d.network.close()
}

// peerOptions silences the peer's diagnostics and, in the traced run,
// attaches its stats registry.
func peerOptions(reg *stats.Registry) []rmi.Option {
	opts := []rmi.Option{rmi.WithLogf(func(string, ...any) {})}
	if reg != nil {
		opts = append(opts, rmi.WithStatsRegistry(reg))
	}
	return opts
}
