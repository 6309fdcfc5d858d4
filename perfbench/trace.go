package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// The tracer records a span around each call the benchmark makes into a
// layer of the pipeline. Spans nest on one goroutine: a span begun while
// another is open is its child. Every span feeds a per-name accumulator
// (calls, total time, self time); the first maxSpans spans are also kept
// whole and written out when the run ends.

// maxSpans bounds the spans kept in memory (about 32 B each); later spans
// still count in the per-name totals.
const maxSpans = 200_000

type span struct {
	name       int32
	parent     int32 // index into spans; -1 for a root or an unkept parent
	op         int32
	start, end int64 // ns since the tracer's epoch
}

type layerStat struct {
	calls       int64
	total, self int64 // ns
}

type frame struct {
	name  int32
	kept  int32 // index into spans, -1 when not kept
	start int64
	child int64 // ns covered by completed child spans
}

type tracer struct {
	now    func() int64
	names  []string
	ids    map[string]int32
	stats  []layerStat
	stack  []frame
	spans  []span
	op     int32
	counts map[string]int64
}

func newTracer() *tracer {
	epoch := time.Now()
	return newTracerClock(func() int64 { return int64(time.Since(epoch)) })
}

// newTracerClock builds a tracer on the given clock (ns, non-decreasing).
func newTracerClock(now func() int64) *tracer {
	return &tracer{now: now, ids: make(map[string]int32), counts: make(map[string]int64)}
}

// id registers a span name once; begin takes the returned id.
func (t *tracer) id(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.stats = append(t.stats, layerStat{})
	t.ids[name] = id
	return id
}

// count adds n to a counter kept at a layer boundary.
func (t *tracer) count(name string, n int64) { t.counts[name] += n }

// setOp tags the spans that follow with an operation id.
func (t *tracer) setOp(op int) { t.op = int32(op) }

func (t *tracer) begin(name int32) {
	f := frame{name: name, kept: -1, start: t.now()}
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		f.kept = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, start: f.start})
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span. Its self time is its duration minus
// the time its completed children covered.
func (t *tracer) end() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	dur := end - f.start
	st := &t.stats[f.name]
	st.calls++
	st.total += dur
	st.self += dur - f.child
	if f.kept >= 0 {
		t.spans[f.kept].end = end
	}
	if n > 0 {
		t.stack[n-1].child += dur
	}
}

// stat returns the accumulator of a span name (zero if never recorded).
func (t *tracer) stat(name string) layerStat {
	if id, ok := t.ids[name]; ok {
		return t.stats[id]
	}
	return layerStat{}
}

// selfPerCall is a span name's mean self time per call, in ns.
func (t *tracer) selfPerCall(name string) float64 {
	st := t.stat(name)
	if st.calls == 0 {
		return 0
	}
	return float64(st.self) / float64(st.calls)
}

// writeSpans writes the kept spans as tab-separated lines: name, start ns,
// end ns, parent index (-1 for none) and op id; the line number (from 0,
// after the header) is the span's index.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\top")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", t.names[s.name], s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
