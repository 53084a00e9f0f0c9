// Command brmibench is the end-to-end benchmark of the batching stack. It
// runs one seeded, closed-loop workload against a deployment it builds in
// process, checks every result, and prints its metrics by name and unit.
//
// Usage (normally through run.py, which builds it):
//
//	brmibench --workload hot-echo|named-rw|bulk-get --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the gated end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload twice, untraced for half the time as
// a reference and then with stats registries and spans for the other half,
// and prints the per-layer metrics of the traced half. The last line of
// standard output is always one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it carry the environment
// stamp and a detailed report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/stats"
)

// commit is the source revision, set at build time with -ldflags -X.
var commit = "unknown"

// deployFunc deploys a workload's generated inputs. regs is nil for an
// untraced deployment.
type deployFunc func(ctx context.Context, regs *registries) (deployment, error)

// workload is one named traffic mix.
type workload struct {
	name    string
	network string
	setups  int           // set-ups per untraced run; setup_s is their median
	warmup  time.Duration // run before every measured phase
	prepare func(seed int64) deployFunc
}

var workloads = []workload{
	{"hot-echo", "tcp-loopback 127.0.0.1", 51, time.Second, prepareHotEcho},
	{"named-rw", fmt.Sprintf("netsim %s (RTT %v)", wanProfile.Name, wanProfile.RTT), 3, 2 * time.Second, prepareNamedRW},
	{"bulk-get", fmt.Sprintf("netsim %s (RTT %v)", wanProfile.Name, wanProfile.RTT), 3, time.Second, prepareBulkGet},
}

// forServer returns a fresh registry for a server peer, or nil when the
// run is untraced.
func (r *registries) forServer() *stats.Registry {
	if r == nil {
		return nil
	}
	reg := stats.New()
	r.servers = append(r.servers, reg)
	return reg
}

// forClient returns the client peer's registry, or nil when untraced.
func (r *registries) forClient() *stats.Registry {
	if r == nil {
		return nil
	}
	r.client = stats.New()
	return r.client
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupPause is the idle time before each timed set-up.
const setupPause = 5 * time.Millisecond

// runLimit bounds one invocation, build excluded; an operation still
// pending then fails through its context.
const runLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: hot-echo, named-rw or bulk-get")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its spans to (none if empty)")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "brmibench: need --workload hot-echo|named-rw|bulk-get, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	printJSON(map[string]any{"env": environment(*wl, *seed)})
	var res result
	var err error
	if *trace == 0 {
		res, err = untraced(ctx, *wl, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = traced(ctx, *wl, *seed, time.Duration(*seconds)*time.Second, *traceDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "brmibench: %s: %v\n", wl.name, err)
		if res.Metrics == nil {
			cancel()
			os.Exit(1)
		}
	}
	for n := range res.Metrics {
		if !validName(n) {
			fmt.Fprintf(os.Stderr, "brmibench: invalid metric name %q\n", n)
			res.Correct = false
		}
	}
	printJSON(res)
	if !res.Correct {
		cancel()
		os.Exit(1)
	}
}

// setUp deploys the workload and times it.
func setUp(ctx context.Context, build deployFunc, regs *registries) (deployment, time.Duration, error) {
	start := time.Now()
	dep, err := build(ctx, regs)
	return dep, time.Since(start), err
}

// untraced sets the workload up wl.setups times (timing each, keeping the
// last), warms it up, measures it for d and checks its final state.
func untraced(ctx context.Context, wl workload, seed int64, d time.Duration) (result, error) {
	build := wl.prepare(seed)
	setups := make([]float64, wl.setups)
	goroutines := runtime.NumGoroutine()
	var dep deployment
	for k := range setups {
		// Each set-up starts from the same quiet state: the previous
		// deployment torn down and its goroutines gone, then a pause so no
		// teardown work overlaps the timing. Without the pause the median
		// of hot-echo's sub-millisecond set-ups moved by half from one
		// process to the next.
		if dep != nil {
			dep.close()
			settledGoroutines(goroutines)
		}
		time.Sleep(setupPause)
		var took time.Duration
		var err error
		if dep, took, err = setUp(ctx, build, nil); err != nil {
			return result{}, err
		}
		setups[k] = took.Seconds()
	}
	defer dep.close()
	sort.Float64s(setups)

	next := make([]int, clients)
	if _, err := phase(ctx, dep, wl.warmup, next, nil); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	w, opErr := phase(ctx, dep, d, next, nil)
	verifyErr := dep.verify(ctx)
	res := result{Correct: opErr == nil && verifyErr == nil && w.failed == 0, Attempted: w.ops, Failed: w.failed}

	detail := map[string]any{
		"setups":  len(setups),
		"setup_s": map[string]float64{"min": setups[0], "median": setups[len(setups)/2], "max": setups[len(setups)-1]},
		"ops":     w.ops,
		"all":     classLatency(w.lat),
	}
	if wl.name == "named-rw" {
		detail["read"], detail["write"] = classLatency(w.readLat), classLatency(w.wrLat)
	}
	printJSON(map[string]any{"detail": detail})

	m, err := endToEnd(w, setups[len(setups)/2])
	res.Metrics = m
	return res, errors.Join(opErr, verifyErr, err)
}

// traced measures an untraced reference phase and then a traced phase of
// d/2 each, on fresh deployments, and derives the per-layer metrics from
// the traced one.
func traced(ctx context.Context, wl workload, seed int64, d time.Duration, traceDir string) (result, error) {
	build := wl.prepare(seed)
	half := d / 2
	goroutines := runtime.NumGoroutine()

	ref, _, err := setUp(ctx, build, nil)
	if err != nil {
		return result{}, err
	}
	next := make([]int, clients)
	_, werr := phase(ctx, ref, wl.warmup, next, nil)
	rw, opErr := phase(ctx, ref, half, next, nil)
	refErr := errors.Join(werr, opErr, ref.verify(ctx))
	ref.close()
	if refErr != nil {
		return result{}, fmt.Errorf("reference phase: %w", refErr)
	}

	regs := &registries{}
	dep, _, err := setUp(ctx, build, regs)
	if err != nil {
		return result{}, err
	}
	next = make([]int, clients)
	if _, err := phase(ctx, dep, wl.warmup, next, nil); err != nil {
		dep.close()
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	tracers := make([]*tracer, clients)
	base := time.Now()
	for c := range tracers {
		tracers[c] = newTracer(base)
	}
	cl0, sv0 := regs.snapshot()
	rt0 := readRuntime()
	w, opErr := phase(ctx, dep, half, next, tracers)
	rt1 := readRuntime()
	cl1, sv1 := regs.snapshot()
	verifyErr := dep.verify(ctx)
	dep.close()

	spans := mergeTracers(tracers)
	var spanErr error
	if spans.overrun > 0 {
		spanErr = fmt.Errorf("%d ops' spans sum past their measured latency", spans.overrun)
	}
	l := perLayer(tracedRun{
		workload:      wl.name,
		w:             w,
		refOpsPerSec:  per(float64(rw.ops), rw.elapsed.Seconds()),
		client:        deltaSnap(cl0, cl1),
		servers:       deltaSnap(sv0, sv1),
		spans:         spans,
		rtBefore:      rt0,
		rtAfter:       rt1,
		goroutinesEnd: settledGoroutines(goroutines),
	})
	printJSON(map[string]any{"detail": map[string]any{
		"ops":           w.ops,
		"reference_ops": rw.ops,
		"refused":       l.refused,
		"spans_kept":    len(spans.spans),
		"spans_dropped": spans.dropped,
		"span_names":    spanCounts(spans),
	}})
	var fileErr error
	if traceDir != "" {
		fileErr = writeSpans(traceDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed), spans)
	}
	res := result{
		Correct:   opErr == nil && verifyErr == nil && spanErr == nil && w.failed == 0,
		Attempted: w.ops,
		Failed:    w.failed,
		Metrics:   l.m,
	}
	return res, errors.Join(opErr, verifyErr, spanErr, fileErr)
}

// spanCounts is how many spans of each name the traced phase recorded.
func spanCounts(t *tracer) map[string]int {
	out := make(map[string]int, len(t.durs))
	for name, ds := range t.durs {
		out[name] = len(ds)
	}
	return out
}

// settledGoroutines counts goroutines once the torn-down deployment's have
// had up to two seconds to get back down to the count before it was built.
func settledGoroutines(before int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "brmibench: encode output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
