package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.submit", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "harness.fold", Start: 30, End: 70}, // overlaps span 2
		{ID: 4, Parent: 3, Name: "harness.doc", Start: 40, End: 60},  // grandchild of 1
		{ID: 5, Parent: 1, Name: "jobs.get", Start: 90, End: 120},    // runs past its parent
		{ID: 6, Name: "server.open", Start: 200},                     // never closed
	}
	got := map[string]layerSummary{}
	for _, row := range summarizeSpans(spans) {
		got[row.Layer] = row
	}
	want := map[string]layerSummary{
		// Job: 100 - |[10,70) ∪ [90,100)| = 30; submit: 40. Busy is
		// the union of [0,100) and [10,50).
		"server":  {Layer: "server", Spans: 2, BusyNS: 100, SelfNS: 70},
		"harness": {Layer: "harness", Spans: 2, BusyNS: 40, SelfNS: 20 + 20},
		"jobs":    {Layer: "jobs", Spans: 1, BusyNS: 30, SelfNS: 30},
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s: got %+v, want %+v", layer, got[layer], w)
		}
	}
}

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{5, 10}, {0, 6}}, 10},       // overlapping, unsorted
		{[]interval{{0, 10}, {2, 3}}, 10},       // nested
		{[]interval{{0, 1}, {1, 2}, {4, 5}}, 3}, // touching and disjoint
	} {
		if got := unionLength(tc.iv); got != tc.want {
			t.Errorf("unionLength(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("sim.run", 0, "")
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	err := tr.do("sim.run", 0, "cell", func(parent int) error {
		return tr.do("sim.build", parent, "cell", func(int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End {
		t.Errorf("spans %+v do not nest", s)
	}
}

func TestPrintSummaryReportsOverhead(t *testing.T) {
	var b bytes.Buffer
	printSummary(&b, traceFile{
		Workload: "sweep",
		Untraced: map[string]float64{"mrefs_per_cpu_s": 40},
		Traced:   map[string]float64{"mrefs_per_cpu_s": 38},
		Spans:    []span{{ID: 1, Name: "harness.sweep", Start: 0, End: 2e6}},
	})
	out := b.String()
	for _, want := range []string{"harness", "2.000", "mrefs_per_cpu_s", "-5.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
}
