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
// signature: it keys each spec by harness.CellKey over the canonical
// configuration, Executes the cells (disk hits, worker leases, local
// fallback) and decodes each worker payload strictly. done, when
// non-nil, receives each resolved cell with its index into specs as it
// arrives, so callers can stream cells live.
func (c *Coordinator) RunCells(ctx context.Context, cfg harness.Config, specs []harness.RunSpec, done func(k int, rep harness.ReportJSON)) ([]harness.ReportJSON, error) {
	wc := harness.NewWireConfig(cfg)
	canonical := wc.Config()
	cells := make([]CellSpec, len(specs))
	for k, spec := range specs {
		cells[k] = CellSpec{Key: harness.CellKey(canonical, spec), Config: wc, Spec: spec}
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

// RunLocal runs cells in this process through harness.RunCells, the
// runner behind workers' leased batches and the coordinator's orphan
// fallback. Cells are grouped by wire configuration in first-appearance
// order, and each group is one RunCells call on parallel goroutines
// with the local checkpoint store attached, so a group runs
// warmest-first and captures its workload at most once. done receives
// each cell's index into cells with its ReportJSON bytes — the bytes a
// coordinator decodes — or, for every cell of a group whose call failed
// before that cell finished, the group's error. It is called from the
// pool's goroutines. A cancelled ctx stops the run and returns
// ctx.Err() without reporting the cells it did not finish.
func RunLocal(ctx context.Context, cells []CellSpec, ckpts *checkpoint.Store, parallel int, done func(i int, report []byte, err error)) error {
	var configs []harness.WireConfig
	groups := make(map[harness.WireConfig][]int)
	for i, cell := range cells {
		if _, ok := groups[cell.Config]; !ok {
			configs = append(configs, cell.Config)
		}
		groups[cell.Config] = append(groups[cell.Config], i)
	}
	for _, wc := range configs {
		idx := groups[wc]
		cfg := wc.Config()
		cfg.Checkpoints, cfg.Workers = ckpts, parallel
		specs := make([]harness.RunSpec, len(idx))
		for k, i := range idx {
			specs[k] = cells[i].Spec
		}
		finished := make([]bool, len(idx))
		_, err := harness.RunCells(ctx, cfg, specs, func(k int, rep harness.ReportJSON) {
			finished[k] = true
			data, err := json.Marshal(rep)
			done(idx[k], data, err)
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			for k, i := range idx {
				if !finished[k] {
					done(i, nil, err)
				}
			}
		}
	}
	return nil
}
