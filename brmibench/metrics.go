package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/stats"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether the sample supports it: rank k = ceil(q*n), and at least
// minBeyond samples must rank above k.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n-k >= minBeyond
}

// histPercentile is percentile over a stats histogram: the value is the
// upper bound of the bucket holding rank ceil(q*count), so it overstates by
// at most 2x, the histogram's resolution.
func histPercentile(h *stats.NamedHist, q float64) (float64, bool) {
	if h == nil || h.Count <= 0 {
		return 0, false
	}
	k := int64(math.Ceil(q * float64(h.Count)))
	if k < 1 {
		k = 1
	}
	return float64(h.Quantile(q)), h.Count-k >= minBeyond
}

// histMean is the exact mean of a histogram's observations.
func histMean(h *stats.NamedHist) float64 {
	if h == nil || h.Count <= 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// metricName is the character set and length BENCHMARK.json allows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return metricName.MatchString(s) }

// per normalises a window total by a count (ops or calls); an empty count
// gives 0 rather than a division by zero.
func per(total, count float64) float64 {
	if count == 0 {
		return 0
	}
	return total / count
}

// window is what one measured phase counted, from its start barrier to the
// moment its last client stopped.
type window struct {
	elapsed time.Duration
	ops     int   // operations attempted
	failed  int   // operations that failed or returned a wrong result
	writes  int   // named-rw deposit and transfer operations
	calls   int64 // remote calls recorded, or GetBatch entries delivered
	lookups int64 // names resolved through the directory
	flushes int64 // cluster.Batch flushes
	waves   int64 // cluster.Batch.Waves summed over flushes
	stale   int64 // flushes that spent their stale-route retry
	rpcs    uint64
	cpu     time.Duration
	mallocs uint64
	heap    uint64    // HeapInuse after a collection at the end of the phase
	lat     []float64 // per-op latency in ms, sorted
	readLat []float64 // named-rw reads, ms, sorted
	wrLat   []float64 // named-rw writes, ms, sorted
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the gated metrics of an untraced window and its
// set-up time in seconds. It fails when the window is too short for a
// percentile under the percentile rule.
//
// The gated tail is p90, not p99: on a shared two-vCPU host a few seconds
// of contention in one run moved bulk-get's p99 by half while its p90
// stayed within the bound. p95 and p99 are printed in the detail line.
func endToEnd(w window, setupS float64) (map[string]metric, error) {
	p50, ok50 := percentile(w.lat, 0.50)
	p90, ok90 := percentile(w.lat, 0.90)
	if !ok50 || !ok90 {
		return nil, fmt.Errorf("%d ops are too few for op_p90_ms: the percentile rule needs %d beyond it", len(w.lat), minBeyond)
	}
	secs := w.elapsed.Seconds()
	calls := float64(w.calls)
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {per(float64(w.ops), secs), "op/s"},
		"calls_per_s":     {per(calls, secs), "call/s"},
		"op_p50_ms":       {p50, "ms"},
		"op_p90_ms":       {p90, "ms"},
		"rpcs_per_op":     {per(float64(w.rpcs), float64(w.ops)), "count"},
		"cpu_us_per_call": {per(float64(w.cpu.Microseconds()), calls), "us"},
		"allocs_per_call": {per(float64(w.mallocs), calls), "count"},
		"heap_inuse_mb":   {float64(w.heap) / (1 << 20), "MB"},
	}, nil
}

// classLatency reports a latency class's sample count and each of its
// p50, p90, p95 and p99 that the percentile rule supports, for the detail
// line.
func classLatency(sorted []float64) map[string]any {
	out := map[string]any{"n": len(sorted)}
	for _, q := range []int{50, 90, 95, 99} {
		if v, ok := percentile(sorted, float64(q)/100); ok {
			out[fmt.Sprintf("p%d_ms", q)] = v
		}
	}
	return out
}

// deltaSnap returns after minus before for every counter, gauge and
// histogram: the window's share of cumulative series. (Point-in-time
// gauges are not read from a delta.)
func deltaSnap(before, after *stats.Snapshot) *stats.Snapshot {
	sub := func(a, b []stats.NamedValue) []stats.NamedValue {
		prev := make(map[string]int64, len(a))
		for _, v := range a {
			prev[v.Name] = v.V
		}
		out := make([]stats.NamedValue, 0, len(b))
		for _, v := range b {
			out = append(out, stats.NamedValue{Name: v.Name, V: v.V - prev[v.Name]})
		}
		return out
	}
	prevH := make(map[string]stats.NamedHist, len(before.Hists))
	for _, h := range before.Hists {
		prevH[h.Name] = h
	}
	d := &stats.Snapshot{Counters: sub(before.Counters, after.Counters), Gauges: sub(before.Gauges, after.Gauges)}
	for _, h := range after.Hists {
		p := prevH[h.Name]
		nh := stats.NamedHist{Name: h.Name, Count: h.Count - p.Count, Sum: h.Sum - p.Sum, Buckets: append([]int64(nil), h.Buckets...)}
		for i := range nh.Buckets {
			if i < len(p.Buckets) {
				nh.Buckets[i] -= p.Buckets[i]
			}
		}
		d.Hists = append(d.Hists, nh)
	}
	return d
}

// registries are the stats registries of a traced deployment.
type registries struct {
	client  *stats.Registry
	servers []*stats.Registry
}

// snapshot captures the client registry and the merge of every server's.
func (r *registries) snapshot() (client, servers *stats.Snapshot) {
	client = r.client.Snapshot()
	servers = &stats.Snapshot{}
	for _, s := range r.servers {
		servers = stats.Merge(servers, s.Snapshot())
	}
	return client, servers
}

// runtimeReading is the Go runtime state the per-layer metrics difference.
type runtimeReading struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeReading
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[2].Value.Float64Histogram()
	}
	return r
}

// gcPauseP99 is the p99 GC pause (µs) between two readings, or false when
// fewer pauses than the percentile rule needs happened. The value is the
// upper bound of the runtime histogram's bucket.
func gcPauseP99(before, after runtimeReading) (float64, bool) {
	if before.pauses == nil || after.pauses == nil {
		return 0, false
	}
	counts := make([]uint64, len(after.pauses.Counts))
	var total uint64
	for i, c := range after.pauses.Counts {
		if i < len(before.pauses.Counts) {
			c -= before.pauses.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0, false
	}
	k := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= k {
			upper := after.pauses.Buckets[i+1]
			if math.IsInf(upper, 1) {
				upper = after.pauses.Buckets[i]
			}
			return upper * 1e6, total-k >= minBeyond
		}
	}
	return 0, false
}

// environment is the stamp printed with every result.
func environment(wl workload, seed int64) map[string]any {
	return map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   wl.name,
		"network":    wl.network,
		"seed":       seed,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
