package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestGoldenExperimentsColumnarEquivalence proves the columnar feed is
// behavior-invisible end to end: for every experiment with a committed
// golden, the JSON document produced by the default path — columnar
// workload preload, zero-copy column windows into the machines' fused
// batch loops — is byte-identical to one assembled from cells run by
// the oracle's reference scheduler, where every reference flows through
// trace.Reader.Next and Machine.Exec one at a time. The runs use a
// reduced scale; the full-scale equivalent is the golden regression
// gate (`make regress`).
func TestGoldenExperimentsColumnarEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven experiments twice")
	}
	goldenIDs := []string{"table3", "table4", "table5", "fig2", "fig3", "fig4", "policies"}
	rates := []uint64{200, 4000}
	sizes := []uint64{256, 2048}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			cfg := tinyConfig()
			colDoc, err := BuildExperimentDoc(context.Background(), cfg, id, rates, sizes)
			if err != nil {
				t.Fatalf("columnar run: %v", err)
			}
			sh, err := ShapeOf(id, rates, sizes)
			if err != nil {
				t.Fatal(err)
			}
			var cells []ReportJSON
			for _, spec := range sh.CellSpecs() {
				cells = append(cells, NewReportJSON(referenceRun(t, cfg, spec)))
			}
			refDoc, err := sh.Doc(cells)
			if err != nil {
				t.Fatal(err)
			}
			colJSON, err := json.Marshal(colDoc)
			if err != nil {
				t.Fatal(err)
			}
			refJSON, err := json.Marshal(refDoc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(colJSON, refJSON) {
				t.Errorf("columnar-fed document diverges from the reference scheduler's\ncolumnar:  %s\nreference: %s", colJSON, refJSON)
			}
		})
	}
}
