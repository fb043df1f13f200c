package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"rampage/internal/metrics"
)

// TestObserverRunEquivalence is the harness-level read-only guarantee:
// a full scheduled run produces a bit-identical report with a collector
// attached, and the collector's counts agree with the report where the
// probe sites mirror a counter.
func TestObserverRunEquivalence(t *testing.T) {
	cfg := tinyConfig()
	spec := RunSpec{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true}
	plain, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(100_000)
	cfg.Observer = col
	observed, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observer perturbed the report:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	counts := col.Counts()
	if counts[metrics.EvContextSwitch] != observed.Switches {
		t.Errorf("context switches: collector %d, report %d", counts[metrics.EvContextSwitch], observed.Switches)
	}
	if counts[metrics.EvSwitchOnMiss] != observed.SwitchesOnMiss {
		t.Errorf("switches on miss: collector %d, report %d", counts[metrics.EvSwitchOnMiss], observed.SwitchesOnMiss)
	}
	if counts[metrics.EvPageFault] != observed.PageFaults {
		t.Errorf("page faults: collector %d, report %d", counts[metrics.EvPageFault], observed.PageFaults)
	}
	if h := col.Hist(metrics.EvDRAMTransfer); h.Count != observed.DRAMTransfers || h.Sum != observed.DRAMBytes {
		t.Errorf("dram transfers: collector %d/%d bytes, report %d/%d bytes",
			h.Count, h.Sum, observed.DRAMTransfers, observed.DRAMBytes)
	}
	if len(col.Snapshots()) == 0 {
		t.Error("expected interval snapshots from the scheduler's Tick calls")
	}
}

// TestRunDocJSON checks the versioned single-run document shape.
func TestRunDocJSON(t *testing.T) {
	cfg := tinyConfig()
	col := metrics.NewCollector(100_000)
	cfg.Observer = col
	rep, err := Run(context.Background(), cfg, RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, NewRunDoc(rep, col)); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if v, _ := doc["version"].(float64); int(v) != ReportVersion {
		t.Errorf("version = %v, want %d", doc["version"], ReportVersion)
	}
	if doc["kind"] != "run" {
		t.Errorf("kind = %v, want run", doc["kind"])
	}
	report, ok := doc["report"].(map[string]any)
	if !ok {
		t.Fatal("missing report object")
	}
	for _, key := range []string{"name", "clock_mhz", "block_bytes", "cycles", "seconds",
		"level_cycles", "tlb_hits", "tlb_misses", "page_faults", "dram_transfers", "overhead_ratio"} {
		if _, ok := report[key]; !ok {
			t.Errorf("report missing key %q", key)
		}
	}
	met, ok := doc["metrics"].(map[string]any)
	if !ok {
		t.Fatal("missing metrics object (collector was attached)")
	}
	if c, ok := met["counts"].(map[string]any); !ok || len(c) == 0 {
		t.Error("metrics.counts missing or empty")
	}
}

// TestBuildExperimentDoc runs a small table3 sweep into the JSON form
// and checks the grid shape and identifying fields.
func TestBuildExperimentDoc(t *testing.T) {
	cfg := tinyConfig()
	rates := []uint64{1000}
	sizes := []uint64{512, 1024}
	doc, err := BuildExperimentDoc(context.Background(), cfg, "table3", rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != ReportVersion || doc.Kind != "experiment" || doc.ID != "table3" {
		t.Errorf("doc header = %d/%s/%s", doc.Version, doc.Kind, doc.ID)
	}
	wantSystems := []string{"baseline-dm", "rampage"}
	if len(doc.Systems) != len(wantSystems) {
		t.Fatalf("systems = %d, want %d", len(doc.Systems), len(wantSystems))
	}
	for i, sys := range doc.Systems {
		if sys.System != wantSystems[i] {
			t.Errorf("system[%d] = %s, want %s", i, sys.System, wantSystems[i])
		}
		if len(sys.Rows) != len(rates) || len(sys.Rows[0]) != len(sizes) {
			t.Fatalf("grid shape %dx%d, want %dx%d", len(sys.Rows), len(sys.Rows[0]), len(rates), len(sizes))
		}
		for j, rep := range sys.Rows[0] {
			if rep.ClockMHz != rates[0] || rep.BlockBytes != sizes[j] {
				t.Errorf("cell [0][%d] = %dMHz/%dB, want %dMHz/%dB",
					j, rep.ClockMHz, rep.BlockBytes, rates[0], sizes[j])
			}
			if rep.Cycles == 0 || rep.BenchRefs == 0 {
				t.Errorf("cell [0][%d] has empty measurements", j)
			}
		}
	}
}

// TestBuildExperimentDocDeterministic pins the property the CI golden
// gate relies on: building the same document twice yields identical
// bytes.
func TestBuildExperimentDocDeterministic(t *testing.T) {
	cfg := tinyConfig()
	encode := func() []byte {
		doc, err := BuildExperimentDoc(context.Background(), cfg, "fig4", nil, []uint64{512, 1024})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, doc); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := encode(), encode(); !bytes.Equal(a, b) {
		t.Error("experiment document is not byte-stable across builds")
	}
}

// TestBuildExperimentDocUnsupported checks the error path and the
// HasJSONForm predicate.
func TestBuildExperimentDocUnsupported(t *testing.T) {
	for _, id := range []string{"table1", "table2", "fig5", "nope"} {
		if e, ok := FindExperiment(id); ok && e.HasJSONForm() {
			t.Errorf("%s.HasJSONForm() = true", id)
		}
		if _, err := BuildExperimentDoc(context.Background(), tinyConfig(), id, nil, nil); err == nil {
			t.Errorf("BuildExperimentDoc(%q) succeeded, want error", id)
		}
	}
	for _, id := range []string{"table3", "table4", "table5", "fig2", "fig3", "fig4", "policies"} {
		if e, _ := FindExperiment(id); !e.HasJSONForm() {
			t.Errorf("%s.HasJSONForm() = false", id)
		}
	}
}
