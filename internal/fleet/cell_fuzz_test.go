package fleet

import (
	"encoding/json"
	"testing"

	"rampage/internal/harness"
	"rampage/internal/synth"
)

// FuzzCellSpec decodes a lease response from arbitrary bytes, as a
// worker does: nothing may panic, and each leased cell is either
// refused by Config.Validate or RunSpec.Validate (an unknown workload
// name included) or its wire config round-trips through JSON and
// NewWireConfig to the same value and the same cell key.
func FuzzCellSpec(f *testing.F) {
	spec := harness.RunSpec{System: harness.RAMpage, IssueMHz: 1000, SizeBytes: 4096}
	var cells []CellSpec
	for _, workload := range []string{"", "compress", synth.Phased, "doom"} {
		cfg := harness.QuickScaled()
		cfg.ProfileName = workload
		wc := harness.NewWireConfig(cfg)
		cells = append(cells, CellSpec{Key: harness.CellKey(cfg, spec), Config: wc, Spec: spec})
	}
	for _, resp := range []LeaseResponse{{Cells: cells}, {Draining: true, PollMs: 20}} {
		seed, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"cells":[{"key":"k","config":{"ref_scale":-0,"profile":"phased"},"spec":{"System":9}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp LeaseResponse
		if json.Unmarshal(data, &resp) != nil {
			return
		}
		for _, cell := range resp.Cells {
			cfg := cell.Config.Config()
			if cfg.Validate() != nil || cell.Spec.Validate() != nil {
				continue
			}
			if _, ok := synth.Workload(cfg.ProfileName); !ok {
				t.Fatalf("Validate accepted the unknown workload %q", cfg.ProfileName)
			}
			raw, err := json.Marshal(harness.NewWireConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			var back harness.WireConfig
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if back != cell.Config {
				t.Fatalf("wire config round-trips to %+v, want %+v", back, cell.Config)
			}
			if harness.CellKey(back.Config(), cell.Spec) != harness.CellKey(cfg, cell.Spec) {
				t.Fatalf("cell key of %+v changes across the wire", cell.Config)
			}
		}
	})
}
