package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans of the traced run. The benchmark records them around its own calls
// into the program's public functions, so tracing changes no program code:
// each span is named after the function it wraps and carries the ID of the
// operation it belongs to.

// span is one recorded interval, in nanoseconds since the traced phase
// began.
type span struct {
	Op    uint64 `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// keepSpans bounds the spans one client keeps for the trace file; the
// per-layer aggregates cover every span regardless.
const keepSpans = 1 << 15

// tracer records one client goroutine's spans. A nil *tracer is the
// untraced run: every method is then a no-op that reads no clock.
type tracer struct {
	base    time.Time
	op      uint64
	opSpans time.Duration // sum of the current op's spans
	durs    map[string][]float64
	spans   []span
	dropped int
	overrun int   // ops whose spans summed past their measured latency
	bufMax  int64 // largest cluster.getbatch_buffer reading
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, durs: make(map[string][]float64)}
}

// beginOp starts attributing spans to operation id.
func (t *tracer) beginOp(id uint64) {
	if t == nil {
		return
	}
	t.op, t.opSpans = id, 0
}

// endOp closes the current operation, whose measured latency was lat. Its
// spans are sequential and nested inside that timing, so a sum past lat
// means a broken recorder; the traced run then fails.
func (t *tracer) endOp(lat time.Duration) {
	if t == nil {
		return
	}
	if t.opSpans > lat {
		t.overrun++
	}
}

// now starts a span.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// done ends the span named name that began at start.
func (t *tracer) done(name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	d := end.Sub(start)
	t.opSpans += d
	t.durs[name] = append(t.durs[name], float64(d)/float64(time.Microsecond))
	if len(t.spans) < keepSpans {
		t.spans = append(t.spans, span{Op: t.op, Name: name, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	} else {
		t.dropped++
	}
}

// observeBuffer records a reading of the assembler's buffer depth.
func (t *tracer) observeBuffer(v int64) {
	if t != nil && v > t.bufMax {
		t.bufMax = v
	}
}

// mergeTracers folds the clients' tracers into one, span durations sorted.
func mergeTracers(ts []*tracer) *tracer {
	m := newTracer(time.Time{})
	for _, t := range ts {
		for name, ds := range t.durs {
			m.durs[name] = append(m.durs[name], ds...)
		}
		m.spans = append(m.spans, t.spans...)
		m.dropped += t.dropped
		m.overrun += t.overrun
		if t.bufMax > m.bufMax {
			m.bufMax = t.bufMax
		}
	}
	for _, ds := range m.durs {
		sort.Float64s(ds)
	}
	sort.Slice(m.spans, func(i, j int) bool { return m.spans[i].Start < m.spans[j].Start })
	return m
}

// sum is the total duration (µs) of the spans named name.
func (t *tracer) sum(name string) float64 {
	var s float64
	for _, d := range t.durs[name] {
		s += d
	}
	return s
}

// writeSpans writes the kept spans as JSON lines under dir.
func writeSpans(dir, file string, t *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
