package main

import (
	"repro/internal/stats"
)

// Span names: each is the public function the span wraps.
const (
	spanCoreCall      = "core.Proxy.Call"
	spanCoreFlush     = "core.Batch.Flush"
	spanRootNamed     = "cluster.Batch.RootNamed"
	spanClusterFlush  = "cluster.Batch.Flush"
	spanGetBatch      = "cluster.GetBatch"
	spanNextFirst     = "cluster.Stream.Next(first)"
	spanNextRemaining = "cluster.Stream.Next(rest)"
)

// tracedRun is everything the traced phase measured.
type tracedRun struct {
	workload      string
	w             window
	refOpsPerSec  float64 // ops/s of the untraced reference phase
	client        *stats.Snapshot
	servers       *stats.Snapshot
	spans         *tracer
	rtBefore      runtimeReading
	rtAfter       runtimeReading
	goroutinesEnd int
}

// layerMetrics collects the per-layer values. A metric a workload does not
// exercise reads 0; a percentile the percentile rule refuses also reads 0
// and is listed in refused.
type layerMetrics struct {
	m       map[string]metric
	refused []string
}

func (l *layerMetrics) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }

func (l *layerMetrics) pct(name, unit string, v float64, ok bool) {
	if !ok {
		if v != 0 {
			l.refused = append(l.refused, name)
		}
		v = 0
	}
	l.set(name, unit, v)
}

// perLayer derives the per-layer metrics of a traced run. The line above
// each group names the end-to-end metric it should move.
func perLayer(r tracedRun) layerMetrics {
	l := layerMetrics{m: make(map[string]metric)}
	w, cl, sv, sp := r.w, r.client, r.servers, r.spans
	ops, calls, writes := float64(w.ops), float64(w.calls), float64(w.writes)
	both := stats.Merge(cl, sv)
	spanPct := func(name, span string, q float64) {
		v, ok := percentile(sp.durs[span], q)
		l.pct(name, "us", v, ok)
	}
	histPct := func(name, unit string, h *stats.NamedHist, q float64) {
		v, ok := histPercentile(h, q)
		l.pct(name, unit, v, ok)
	}

	// Round trips, attributed: rpcs next to lookups and waves.
	l.set("rmi.calls_per_op", "count", per(float64(cl.Gauge("rmi.calls")), ops))
	l.set("error_rate", "fraction", per(float64(w.failed), ops))

	// core client → cpu_us_per_call, op_p50_ms / op_p99_ms (hot-echo).
	l.set("core.record_us_per_op", "us", per(sp.sum(spanCoreCall), ops))
	spanPct("core.flush_us.p50", spanCoreFlush, 0.50)
	spanPct("core.flush_us.p99", spanCoreFlush, 0.99)

	// core executor → op_p99_ms (hot-echo).
	histPct("core.wave_ns.p50", "ns", sv.Hist("core.wave_ns"), 0.50)
	histPct("core.wave_ns.p99", "ns", sv.Hist("core.wave_ns"), 0.99)
	l.set("core.batch_calls.mean", "count", histMean(sv.Hist("core.batch_calls")))
	l.set("core.replay_sequential_per_op", "count", per(float64(sv.Counter("core.replay_sequential")), ops))
	l.set("core.replay_parallel_per_op", "count", per(float64(sv.Counter("core.replay_parallel")), ops))

	// wire → cpu_us_per_call, allocs_per_call. The codec state counters
	// are process-wide, so they are read from one registry.
	l.set("wire.encode_ns.sum_per_call", "ns", per(float64(histSum(both.Hist("wire.encode_ns"))), calls))
	l.set("wire.decode_ns.sum_per_call", "ns", per(float64(histSum(both.Hist("wire.decode_ns"))), calls))
	l.set("wire.enc_state_reuse", "fraction", reuse(cl.Gauge("wire.enc_state_allocs"), cl.Gauge("wire.enc_state_gets")))
	l.set("wire.dec_state_reuse", "fraction", reuse(cl.Gauge("wire.dec_state_allocs"), cl.Gauge("wire.dec_state_gets")))

	// transport, client side unless named otherwise → calls_per_s.
	l.set("transport.frames_out_per_op", "count", per(float64(cl.Counter("transport.frames_out")), ops))
	l.set("transport.bytes_out_per_op", "B", per(float64(cl.Counter("transport.bytes_out")), ops))
	l.set("transport.bytes_in_per_op", "B", per(float64(cl.Counter("transport.bytes_in")), ops))
	l.set("transport.writev_frames.mean", "count", histMean(both.Hist("transport.writev_frames")))
	hits, misses := cl.Gauge("transport.pool_hit"), cl.Gauge("transport.pool_miss")
	l.set("transport.pool_hit_ratio", "fraction", per(float64(hits), float64(hits+misses)))
	// Streaming (bulk-get): chunks the servers sent, bytes the client got.
	l.set("transport.chunks_out_per_op", "count", per(float64(sv.Counter("transport.chunks_out")), ops))
	l.set("transport.stream_bytes_in_per_op", "B", per(float64(cl.Counter("transport.stream_bytes_in")), ops))
	l.set("transport.redials", "count", float64(both.Counter("transport.redials")))

	// cluster directory and registry → rpcs_per_op, read latency.
	l.set("cluster.lookups_per_op", "count", per(float64(w.lookups), ops))
	spanPct("cluster.lookup_us.p50", spanRootNamed, 0.50)
	l.set("cluster.lookup_retries", "count", float64(cl.Counter("cluster.lookup_retries")))
	l.set("cluster.dir_refreshes", "count", float64(cl.Counter("cluster.dir_refreshes")))
	l.set("cluster.wrong_home_retries", "count", float64(cl.Counter("cluster.wrong_home_retries")))

	// cluster stage planner → named-rw latency.
	spanPct("cluster.flush_us.p50", spanClusterFlush, 0.50)
	l.set("cluster.waves_per_flush", "count", per(float64(w.waves), float64(w.flushes)))
	histPct("cluster.stage_ns.p50", "ns", cl.Hist("cluster.stage_ns"), 0.50)
	l.set("cluster.stale_retries", "count", float64(w.stale))

	// rcache → read latency and rpcs_per_op (named-rw).
	ch, cm := cl.Counter("cache.hits"), cl.Counter("cache.misses")
	l.set("cache.hit_ratio", "fraction", per(float64(ch), float64(ch+cm)))
	l.set("cache.invalidations_per_write", "count", per(float64(cl.Counter("cache.invalidations")), writes))
	l.set("cache.coalesced", "count", float64(cl.Counter("cache.coalesced")))

	// cluster replica → write latency (named-rw).
	histPct("cluster.replication_lag.p50", "ns", cl.Hist("cluster.replication_lag"), 0.50)
	l.set("cluster.quorum_waits_per_write", "count", per(float64(cl.Counter("cluster.quorum_waits")), writes))
	l.set("cluster.replica_appends_per_write", "count", per(float64(sv.Counter("cluster.replica_appends")), writes))

	// cluster getbatch → op_p50_ms, calls_per_s (bulk-get).
	spanPct("cluster.getbatch_open_us", spanGetBatch, 0.50)
	spanPct("cluster.getbatch_first_entry_us", spanNextFirst, 0.50)
	spanPct("cluster.getbatch_drain_us", spanNextRemaining, 0.50)
	l.set("cluster.getbatch_buffer.max", "count", float64(sp.bufMax))
	l.set("core.getbatch_entries_per_op", "count", per(float64(sv.Counter("core.getbatch_entries")), ops))

	// named-rw latency by class, from the traced run.
	var rp, wp float64
	var rok, wok bool
	if r.workload == "named-rw" {
		rp, rok = percentile(w.readLat, 0.50)
		wp, wok = percentile(w.wrLat, 0.50)
	}
	l.pct("named_rw.read_p50_ms", "ms", rp, rok)
	l.pct("named_rw.write_p50_ms", "ms", wp, wok)

	// Go runtime → op_p99_ms (hot-echo).
	l.set("runtime.gc_cpu_fraction", "fraction", per(r.rtAfter.gcCPU-r.rtBefore.gcCPU, r.rtAfter.totalCPU-r.rtBefore.totalCPU))
	gp, gok := gcPauseP99(r.rtBefore, r.rtAfter)
	l.pct("runtime.gc_pause_p99_us", "us", gp, gok)
	l.set("runtime.goroutines_end", "count", float64(r.goroutinesEnd))

	// What tracing itself cost.
	tracedOpsPerSec := per(ops, w.elapsed.Seconds())
	l.set("trace.overhead_frac", "fraction", 1-per(tracedOpsPerSec, r.refOpsPerSec))
	return l
}

func histSum(h *stats.NamedHist) int64 {
	if h == nil {
		return 0
	}
	return h.Sum
}

// reuse is the share of codec-state gets served without an allocation.
func reuse(allocs, gets int64) float64 {
	if gets == 0 {
		return 0
	}
	return 1 - float64(allocs)/float64(gets)
}
