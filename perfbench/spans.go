package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Name is "<layer>.<call>"; Parent is the id of the span
// that caused it (0 = none); Tag names the job or cell it served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int, tag string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Tag: tag, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanSince records a closed span that began at start: for work whose
// boundaries the benchmark only observes as it ends, such as a sweep
// cell reported through a callback.
func (t *tracer) spanSince(name string, parent int, tag string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Tag: tag,
		Start: start.Sub(t.t0).Nanoseconds(), End: now})
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, tag string, fn func(id int) error) error {
	id := t.start(name, parent, tag)
	err := fn(id)
	t.end(id)
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// interval is a half-open [lo, hi) stretch of trace time in ns.
type interval struct{ lo, hi int64 }

// unionLength is the measure of the union of intervals, so overlapping
// intervals are counted once.
func unionLength(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// layerSummary is one row of the trace summary.
type layerSummary struct {
	Layer  string
	Spans  int
	BusyNS int64 // time at least one of the layer's spans was open
	SelfNS int64 // span time not covered by the span's own children
}

// summarizeSpans attributes trace time to layers. A span's self time
// is its duration minus the part of it covered by its children, with
// overlapping children counted once; busy time is the union of the
// layer's spans. Unclosed spans are ignored.
func summarizeSpans(spans []span) []layerSummary {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerSummary)
	busy := make(map[string][]interval)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		layer := layerOf(s.Name)
		row := rows[layer]
		if row == nil {
			row = &layerSummary{Layer: layer}
			rows[layer] = row
		}
		row.Spans++
		var covered []interval
		for _, c := range children[s.ID] {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi > lo {
				covered = append(covered, interval{lo, hi})
			}
		}
		row.SelfNS += s.End - s.Start - unionLength(covered)
		busy[layer] = append(busy[layer], interval{s.Start, s.End})
	}
	out := make([]layerSummary, 0, len(rows))
	for layer, row := range rows {
		row.BusyNS = unionLength(busy[layer])
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// traceFile is what a traced run writes at exit: its spans plus the
// end-to-end figures of the traced and the untraced measurement, so
// the summary can be reprinted from the file alone.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Untraced map[string]float64 `json:"untraced"`
	Traced   map[string]float64 `json:"traced"`
	Spans    []span             `json:"spans"`
}

// overhead is the traced value's relative change from the untraced one.
func overhead(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// printSummary writes the per-layer table and the tracing overhead of
// every end-to-end metric.
func printSummary(w io.Writer, tf traceFile) {
	fmt.Fprintf(w, "trace summary: workload %s, seed %d, %d spans\n", tf.Workload, tf.Seed, len(tf.Spans))
	fmt.Fprintf(w, "  %-12s %8s %12s %12s\n", "layer", "spans", "busy_ms", "self_ms")
	for _, row := range summarizeSpans(tf.Spans) {
		fmt.Fprintf(w, "  %-12s %8d %12.3f %12.3f\n", row.Layer, row.Spans,
			float64(row.BusyNS)/1e6, float64(row.SelfNS)/1e6)
	}
	fmt.Fprintf(w, "  %-20s %14s %14s %10s\n", "end-to-end metric", "untraced", "traced", "overhead")
	names := make([]string, 0, len(tf.Untraced))
	for name := range tf.Untraced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		u, t := tf.Untraced[name], tf.Traced[name]
		fmt.Fprintf(w, "  %-20s %14.6g %14.6g %+9.2f%%\n", name, u, t, 100*overhead(t, u))
	}
}
