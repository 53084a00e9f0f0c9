package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/rmi"
)

// clients is the number of closed-loop client goroutines of every
// workload. They share one client peer, so a workload holds at most one
// connection per server.
const clients = 2

// deployment is one built workload, ready to run operations.
type deployment interface {
	// op runs operation i of client c: the workload's inputs are indexed
	// by both, so a seed fixes what every client sends.
	op(ctx context.Context, c, i int, tr *tracer) opResult
	// verify checks the end-of-run state against the workload's model.
	verify(ctx context.Context) error
	peer() *rmi.Peer
	close()
}

// opResult is what one operation did.
type opResult struct {
	calls   int // remote calls recorded, or GetBatch entries delivered
	lookups int // names resolved through the directory
	flushes int // cluster.Batch flushes
	waves   int // their Batch.Waves
	stale   int // flushes that spent the stale-route retry
	write   bool
	err     error // failure or wrong result
}

// clientTally is one client goroutine's share of a phase.
type clientTally struct {
	window
	samples  *sampleBuf
	firstErr error
}

// sampleCap bounds the latencies one client records in a phase: far more
// operations than a loopback round trip allows in a minute.
const sampleCap = 1 << 22

// sampleBuf holds one client's per-op latencies (ms, writes negated)
// outside the Go heap, so heap_inuse_mb does not grow with the number of
// operations a run measures.
type sampleBuf struct {
	mem []byte
	v   []float32
	n   int
}

func newSampleBuf() (*sampleBuf, error) {
	mem, err := syscall.Mmap(-1, 0, sampleCap*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map latency buffer: %w", err)
	}
	return &sampleBuf{mem: mem, v: unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), sampleCap)}, nil
}

// add records one latency; it reports false once the buffer is full.
func (b *sampleBuf) add(ms float64, write bool) bool {
	if b.n == len(b.v) {
		return false
	}
	if write {
		ms = -ms
	}
	b.v[b.n] = float32(ms)
	b.n++
	return true
}

// drain appends the recorded latencies to the window's Go slices and
// releases the buffer.
func (b *sampleBuf) drain(w *window) {
	for _, v := range b.v[:b.n] {
		ms := float64(v)
		if ms < 0 {
			w.wrLat = append(w.wrLat, -ms)
			w.lat = append(w.lat, -ms)
		} else {
			w.readLat = append(w.readLat, ms)
			w.lat = append(w.lat, ms)
		}
	}
	b.free()
}

func (b *sampleBuf) free() { _ = syscall.Munmap(b.mem) }

// loop runs client c's closed loop from operation *next until the
// deadline: each operation starts only when the previous one returned.
func loop(ctx context.Context, dep deployment, c int, next *int, deadline time.Time, tr *tracer, samples *sampleBuf) clientTally {
	t := clientTally{samples: samples}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		i := *next
		*next++
		tr.beginOp(uint64(c)<<40 | uint64(i))
		start := time.Now()
		res := dep.op(ctx, c, i, tr)
		lat := time.Since(start)
		tr.endOp(lat)
		ms := float64(lat) / float64(time.Millisecond)
		t.ops++
		t.calls += int64(res.calls)
		t.lookups += int64(res.lookups)
		t.flushes += int64(res.flushes)
		t.waves += int64(res.waves)
		t.stale += int64(res.stale)
		if res.write {
			t.writes++
		}
		if !samples.add(ms, res.write) && t.firstErr == nil {
			t.firstErr = fmt.Errorf("client %d: latency buffer full after %d ops", c, t.ops)
		}
		if res.err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("client %d op %d: %w", c, i, res.err)
			}
		}
	}
	return t
}

// phase runs every client for d and returns the merged window. tracers is
// nil for an untraced phase. The window's counters cover exactly the
// operations it ran: the phase starts and ends at a barrier.
func phase(ctx context.Context, dep deployment, d time.Duration, next []int, tracers []*tracer) (window, error) {
	var ru0 syscall.Rusage
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	rpcs0 := dep.peer().CallCount()

	bufs := make([]*sampleBuf, clients)
	for c := range bufs {
		b, err := newSampleBuf()
		if err != nil {
			for _, b := range bufs[:c] {
				b.free()
			}
			return window{}, err
		}
		bufs[c] = b
	}
	start := time.Now()
	deadline := start.Add(d)
	tallies := make([]clientTally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = loop(ctx, dep, c, &next[c], deadline, tr, bufs[c])
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}

	var ru1 syscall.Rusage
	var ms1 runtime.MemStats
	w.rpcs = dep.peer().CallCount() - rpcs0
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	w.cpu = rusageCPU(ru1) - rusageCPU(ru0)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	// The heap after two collections is the live set: not wherever the GC
	// cycle happened to stand when the phase ended, nor what sync.Pools
	// still cache (they survive one collection).
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	w.heap = ms1.HeapInuse

	var firstErr error
	for _, t := range tallies {
		w.ops += t.ops
		w.failed += t.failed
		w.writes += t.writes
		w.calls += t.calls
		w.lookups += t.lookups
		w.flushes += t.flushes
		w.waves += t.waves
		w.stale += t.stale
		t.samples.drain(&w)
		if firstErr == nil {
			firstErr = t.firstErr
		}
	}
	sort.Float64s(w.lat)
	sort.Float64s(w.readLat)
	sort.Float64s(w.wrLat)
	return w, firstErr
}

func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
