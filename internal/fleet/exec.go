package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"rampage/internal/checkpoint"
	"rampage/internal/harness"
)

// RunCells is the fleet's cell runner, with harness.RunCells'
// signature: it keys each spec by harness.RunKey over the canonical
// configuration, Executes the cells (disk hits, worker leases, local
// fallback) and decodes each worker payload strictly. done, when
// non-nil, receives each resolved cell with its index into specs as it
// arrives, so callers can stream cells live. ErrNotWireable marks
// configurations that cannot be distributed (custom profile sets).
func (c *Coordinator) RunCells(ctx context.Context, cfg harness.Config, specs []harness.RunSpec, done func(k int, rep harness.ReportJSON)) ([]harness.ReportJSON, error) {
	wc, ok := harness.NewWireConfig(cfg)
	if !ok {
		return nil, ErrNotWireable
	}
	canonical := wc.Config()
	cells := make([]CellSpec, len(specs))
	for k, spec := range specs {
		cells[k] = CellSpec{Key: harness.RunKey(canonical, spec), Config: wc, Spec: spec}
	}
	reports := make([]harness.ReportJSON, len(cells))
	var bad error
	_, err := c.Execute(ctx, cells, func(k int, raw json.RawMessage) {
		if bad != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&reports[k]); err != nil {
			bad = fmt.Errorf("fleet: cell %s returned malformed report: %w", shortKey(cells[k].Key), err)
			return
		}
		if done != nil {
			done(k, reports[k])
		}
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// ExecuteCell runs one sweep cell locally and returns its ReportJSON
// bytes. It is the single execution path shared by workers and by the
// coordinator's no-workers fallback, so a cell's bytes are identical
// wherever it runs: reconstruct the canonical configuration, attach
// the local warm-state checkpoint store (warm restores are
// bit-identical to cold runs), simulate, flatten.
func ExecuteCell(ctx context.Context, cell CellSpec, ckpts *checkpoint.Store) ([]byte, error) {
	cfg := cell.Config.Config()
	cfg.Checkpoints = ckpts
	rep, err := harness.Run(ctx, cfg, cell.Spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(harness.NewReportJSON(rep))
}

// orderCells returns the leased batch warmest-first against the local
// checkpoint store, per harness.PlanCells: cells a stored checkpoint
// completes outright run (and stream back) first, then resumable ones
// by warmth, then cold cells in lease order. Batches can mix
// configurations (cells from different experiments or scales), so the
// plan is computed per configuration group and groups keep their
// relative order.
func orderCells(cells []CellSpec, ckpts *checkpoint.Store) []CellSpec {
	if ckpts == nil || len(cells) < 2 {
		return cells
	}
	type group struct {
		wire  harness.WireConfig
		cells []CellSpec
	}
	var groups []*group
	byCfg := make(map[harness.WireConfig]*group)
	for _, c := range cells {
		g, ok := byCfg[c.Config]
		if !ok {
			g = &group{wire: c.Config}
			byCfg[c.Config] = g
			groups = append(groups, g)
		}
		g.cells = append(g.cells, c)
	}
	out := make([]CellSpec, 0, len(cells))
	for _, g := range groups {
		cfg := g.wire.Config()
		cfg.Checkpoints = ckpts
		specs := make([]harness.RunSpec, len(g.cells))
		for i, c := range g.cells {
			specs[i] = c.Spec
		}
		for _, pc := range harness.PlanCells(cfg, specs).Cells {
			out = append(out, g.cells[pc.Index])
		}
	}
	return out
}
