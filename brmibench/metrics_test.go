package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{0, 0.50, 0, false},
		{19, 0.50, 10, false}, // 9 samples beyond the median
		{20, 0.50, 10, true},  // 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{199, 0.95, 190, false},
		{200, 0.95, 190, true},
		{1, 0.99, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(ascending(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
}

func TestHistPercentileRule(t *testing.T) {
	reg := stats.New()
	h := reg.Histogram("x")
	for i := 0; i < 999; i++ {
		h.Observe(100)
	}
	if _, ok := histPercentile(reg.Snapshot().Hist("x"), 0.99); ok {
		t.Error("p99 of 999 observations accepted; the rule needs 10 beyond it")
	}
	h.Observe(100)
	v, ok := histPercentile(reg.Snapshot().Hist("x"), 0.99)
	if !ok || v < 100 || v > 200 {
		t.Errorf("p99 of 1000 observations of 100 = %v, %v; want a bucket bound in [100, 200]", v, ok)
	}
	if _, ok := histPercentile(nil, 0.5); ok {
		t.Error("percentile of a missing histogram accepted")
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, good := range []string{"setup_s", "core.flush_us.p50", "a", "9-x_y.z"} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "latency(ms)", "µs", "a/b", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestNamesMatchBenchmarkJSON pins the printed metric names and units to
// the ones BENCHMARK.json declares, and checks them against the charset.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, err := endToEnd(window{lat: ascending(1000)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	layers := perLayer(tracedRun{client: &stats.Snapshot{}, servers: &stats.Snapshot{}, spans: newTracer(time.Time{})}).m
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		seen := map[string]bool{}
		for _, d := range c.declared {
			m, ok := c.printed[d.Name]
			switch {
			case !validName(d.Name):
				t.Errorf("%s: invalid name %q", c.what, d.Name)
			case seen[d.Name]:
				t.Errorf("%s: %q declared twice", c.what, d.Name)
			case !ok:
				t.Errorf("%s: %q declared but not printed", c.what, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %q printed in %q, declared in %q", c.what, d.Name, m.Unit, d.Unit)
			}
			seen[d.Name] = true
		}
		for name := range c.printed {
			if !seen[name] {
				t.Errorf("%s: %q printed but not declared", c.what, name)
			}
		}
	}
}

func TestNormalisation(t *testing.T) {
	w := window{
		elapsed: 2 * time.Second,
		ops:     100,
		calls:   400,
		rpcs:    150,
		cpu:     800 * time.Microsecond,
		mallocs: 4000,
		heap:    3 << 20,
		lat:     ascending(1000),
	}
	m, err := endToEnd(w, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"setup_s":         1.5,
		"ops_per_s":       50,
		"calls_per_s":     200,
		"rpcs_per_op":     1.5,
		"cpu_us_per_call": 2,
		"allocs_per_call": 10,
		"heap_inuse_mb":   3,
		"op_p50_ms":       500,
		"op_p90_ms":       900,
	}
	for name, v := range want {
		if m[name].Value != v {
			t.Errorf("%s = %v, want %v", name, m[name].Value, v)
		}
	}
	if per(5, 0) != 0 {
		t.Error("per(5, 0) != 0")
	}

	// Per-layer values divide by ops, calls or writes as their names say.
	cl, sv := stats.New(), stats.New()
	cl.Counter("transport.frames_out").Add(300)
	cl.Counter("cache.invalidations").Add(40)
	sv.Counter("cluster.replica_appends").Add(60)
	tw := window{elapsed: time.Second, ops: 100, calls: 400, writes: 20, lookups: 700, flushes: 100, waves: 150}
	l := perLayer(tracedRun{w: tw, refOpsPerSec: 125, client: cl.Snapshot(), servers: sv.Snapshot(), spans: newTracer(time.Time{})}).m
	for name, v := range map[string]float64{
		"transport.frames_out_per_op":       3,
		"cache.invalidations_per_write":     2,
		"cluster.replica_appends_per_write": 3,
		"cluster.lookups_per_op":            7,
		"cluster.waves_per_flush":           1.5,
		"trace.overhead_frac":               0.2,
	} {
		if got := l[name].Value; got < v-1e-9 || got > v+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestDeltaSnap(t *testing.T) {
	reg := stats.New()
	reg.Counter("c").Add(5)
	reg.Histogram("h").Observe(3)
	before := reg.Snapshot()
	reg.Counter("c").Add(2)
	reg.Histogram("h").Observe(3)
	reg.Histogram("h").Observe(1000)
	d := deltaSnap(before, reg.Snapshot())
	if d.Counter("c") != 2 {
		t.Errorf("counter delta = %d, want 2", d.Counter("c"))
	}
	if h := d.Hist("h"); h == nil || h.Count != 2 || h.Sum != 1003 {
		t.Errorf("histogram delta = %+v, want count 2 sum 1003", h)
	}
}

func TestSpansFitTheirOp(t *testing.T) {
	// Spans recorded inside an op's timing never sum past its latency.
	tr := newTracer(time.Now())
	for op := uint64(0); op < 20; op++ {
		tr.beginOp(op)
		start := time.Now()
		for k := 0; k < 3; k++ {
			t0 := tr.now()
			time.Sleep(100 * time.Microsecond)
			tr.done("step", t0)
		}
		lat := time.Since(start)
		tr.endOp(lat)
		var own []span
		var sum int64
		for _, s := range tr.spans {
			if s.Op == op {
				own = append(own, s)
				sum += s.End - s.Start
			}
		}
		if len(own) != 3 || sum > int64(lat) {
			t.Fatalf("op %d: %d spans %v sum past latency %v", op, len(own), own, lat)
		}
	}
	if tr.overrun != 0 {
		t.Errorf("tracer counted %d overruns", tr.overrun)
	}

	// An op whose spans outlast its reported latency is counted.
	tr.beginOp(99)
	t0 := tr.now()
	time.Sleep(time.Millisecond)
	tr.done("step", t0)
	tr.endOp(time.Microsecond)
	if tr.overrun != 1 {
		t.Errorf("overrun = %d after spans outlasted their op, want 1", tr.overrun)
	}
	var nilTracer *tracer
	nilTracer.beginOp(1)
	nilTracer.done("x", nilTracer.now())
	nilTracer.endOp(0)
}

// TestWorkloadsSmoke deploys every workload, runs a few operations of each
// client through the real stack and checks the end-of-run model.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys three clusters")
	}
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dep, err := wl.prepare(7)(ctx, &registries{})
			if err != nil {
				t.Fatal(err)
			}
			defer dep.close()
			next := make([]int, clients)
			w, err := phase(ctx, dep, 300*time.Millisecond, next, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.ops == 0 || w.failed != 0 || !sort.Float64sAreSorted(w.lat) {
				t.Fatalf("ops %d failed %d", w.ops, w.failed)
			}
			if err := dep.verify(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}
