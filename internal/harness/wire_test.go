package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"rampage/internal/synth"
)

// TestWireConfigRoundTrip pins the fleet's correctness foundation: a
// Config projected to wire form and reconstructed remotely must hash
// to the same canonical keys, so a worker's content addresses agree
// with the coordinator's. The workload name travels too: a phased or
// one-program configuration is as wireable as the Table 2 one.
func TestWireConfigRoundTrip(t *testing.T) {
	for _, profile := range []string{"", "compress", synth.Phased} {
		cfg := QuickScaled()
		cfg.RefScale = 1.0 / 10000
		cfg.MaxRefs = 12345
		cfg.ProfileName = profile
		cfg.Workers = 7 // execution knob: must not affect the wire form

		wc := NewWireConfig(cfg)
		// JSON round-trip, as the cell travels over HTTP.
		raw, err := json.Marshal(wc)
		if err != nil {
			t.Fatal(err)
		}
		var back WireConfig
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != wc {
			t.Fatalf("%q: wire round-trip changed config: %+v vs %+v", profile, back, wc)
		}
		got := back.Config()
		spec := RunSpec{System: RAMpage, IssueMHz: 400, SizeBytes: 1 << 12}
		if RunKey(got, spec) != RunKey(cfg, spec) || CellKey(got, spec) != CellKey(cfg, spec) {
			t.Errorf("%q: run or cell key differs after wire round-trip", profile)
		}
		if CheckpointPrefixKey(got, spec) != CheckpointPrefixKey(cfg, spec) {
			t.Errorf("%q: checkpoint prefix differs after wire round-trip", profile)
		}
		if ExperimentKey(got, "table3", nil, nil) != ExperimentKey(cfg, "table3", nil, nil) {
			t.Errorf("%q: experiment key differs after wire round-trip", profile)
		}
	}
}

// TestShapeAssemblyEquivalence pins the fleet's byte-identity
// guarantee at its root: running each cell independently, marshaling
// the report to JSON (the worker's wire step), unmarshaling it back
// (the coordinator's) and folding via ExperimentShape.Doc yields
// exactly the bytes BuildExperimentDoc produces in one process.
func TestShapeAssemblyEquivalence(t *testing.T) {
	cfg := QuickScaled()
	cfg.RefScale = 1.0 / 10000
	rates, sizes := []uint64{200, 400}, []uint64{1 << 12}
	ctx := context.Background()

	doc, err := BuildExperimentDoc(ctx, cfg, "table3", rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteJSON(&want, doc); err != nil {
		t.Fatal(err)
	}

	sh, err := ShapeOf("table3", rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	specs := sh.CellSpecs()
	reports := make([]ReportJSON, len(specs))
	for i, spec := range specs {
		rep, err := Run(ctx, cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Wire round-trip: worker marshal, coordinator unmarshal.
		raw, err := json.Marshal(NewReportJSON(rep))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	cellDoc, err := sh.Doc(reports)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, cellDoc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("per-cell assembly differs from monolithic build (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestShapeDocValidates pins the guard rails around assembly.
func TestShapeDocValidates(t *testing.T) {
	sh, err := ShapeOf("table3", []uint64{200}, []uint64{1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Doc(make([]ReportJSON, 1)); err == nil {
		t.Error("Doc accepted wrong report count")
	}
	if _, err := ShapeOf("nope", nil, nil); err == nil {
		t.Error("ShapeOf accepted unknown experiment")
	}
	if _, err := ShapeOf("table1", nil, nil); err == nil {
		t.Error("ShapeOf accepted an experiment with no JSON form")
	}
}

// TestShapeOfRejectsBadGrids pins the expand step as the one place a
// bad grid is refused: zero and repeated values, and any cell that
// fails RunSpec.Validate, error before a cell runs.
func TestShapeOfRejectsBadGrids(t *testing.T) {
	for _, tc := range []struct {
		name         string
		id           string
		rates, sizes []uint64
		errIs        string // "" = accepted
	}{
		{"paper defaults", "table3", nil, nil, ""},
		{"figure pins its own rate", "fig2", []uint64{300}, []uint64{4096}, ""},
		{"zero rate", "table3", []uint64{0}, []uint64{4096}, "zero grid value"},
		{"zero size", "table3", []uint64{200}, []uint64{0}, "zero grid value"},
		{"repeated rate", "table3", []uint64{200, 200}, []uint64{4096}, "duplicate grid value 200"},
		{"repeated size", "table4", []uint64{200}, []uint64{256, 256}, "duplicate grid value 256"},
		{"non-integral cycle time", "table3", []uint64{300}, []uint64{4096}, "bad issue rate 300"},
		{"size not a power of two", "policies", nil, []uint64{3000}, "not a positive power of two"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ShapeOf(tc.id, tc.rates, tc.sizes)
			if tc.errIs == "" {
				if err != nil {
					t.Fatalf("ShapeOf: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errIs) {
				t.Fatalf("ShapeOf error = %v, want one mentioning %q", err, tc.errIs)
			}
		})
	}
}
