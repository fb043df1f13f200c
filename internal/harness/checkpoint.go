package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"

	"rampage/internal/checkpoint"
)

// Warm-state checkpointing: runWithReaders captures the complete
// machine+scheduler state when a run finishes (at its reference budget
// or at end of workload) and, on later runs of the same warm-up prefix,
// restores the newest dominating checkpoint instead of re-simulating
// the shared prefix. Restored runs are bit-identical to from-scratch
// runs — the golden suite and the oracle lockstep tests pin this — so
// checkpointing, like the result cache, is invisible in results and
// excluded from cache keys.

// ckptPrefixDoc is the hashed identity of a warm-up trajectory: every
// result-affecting field except the reference budget (runs differing
// only in MaxRefs share a trajectory — that is the whole point), salted
// with the checkpoint format version so a format bump invalidates every
// stored checkpoint at the key level.
type ckptPrefixDoc struct {
	Format  uint32          `json:"ckpt_format"`
	Version int             `json:"v"`
	Config  canonicalConfig `json:"config"`
	Spec    RunSpec         `json:"spec"`
}

// CheckpointPrefixKey returns the warm-up prefix hash for (cfg, spec):
// the address under which the run's checkpoints are stored and looked
// up. It returns "" — disabling checkpointing — for configurations
// whose workload identity is not captured by the canonical config
// (custom profile sets), mirroring the workload cache's cacheability
// rule.
func CheckpointPrefixKey(cfg Config, spec RunSpec) string {
	if cfg.profiles != nil {
		return ""
	}
	cc := canonicalOf(cfg)
	cc.MaxRefs = 0
	doc := ckptPrefixDoc{
		Format:  checkpoint.FormatVersion,
		Version: ReportVersion,
		Config:  cc,
		Spec:    spec.Normalized(),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic("harness: checkpoint prefix encoding failed: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// PlanCell is one cell's warm-state outlook.
type PlanCell struct {
	// Index is the cell's position in the specs PlanCells was given.
	Index  int
	Spec   RunSpec
	Prefix string
	// Refs is the warmest usable checkpoint's reference count;
	// Complete means restoring it finishes the run outright. Both are
	// zero/false for cold cells.
	Refs     uint64
	Complete bool
}

// SweepPlan orders a set of cells by how much stored warm state they
// can reuse.
type SweepPlan struct {
	// Cells holds every cell, warmest first: complete restores, then
	// resumable ones by descending reference count, then cold cells in
	// input order.
	Cells []PlanCell
	// Warm counts cells with any usable checkpoint; Complete counts
	// those needing no simulation at all.
	Warm, Complete int
}

// PlanCells consults the configuration's checkpoint store and orders
// the cells warmest-first. The in-process pool dispatches in this
// order, fleet workers' leased batches included: complete restores
// return immediately and resumable cells finish early, so the
// wall-clock goes to the genuinely cold cells. With no store attached
// every cell is cold and input order is kept.
func PlanCells(cfg Config, specs []RunSpec) SweepPlan {
	var plan SweepPlan
	for k, spec := range specs {
		pc := PlanCell{Index: k, Spec: spec, Prefix: CheckpointPrefixKey(cfg, spec)}
		if cfg.Checkpoints != nil && pc.Prefix != "" {
			if refs, complete, ok := cfg.Checkpoints.Peek(pc.Prefix, cfg.MaxRefs); ok {
				pc.Refs, pc.Complete = refs, complete
				plan.Warm++
				if complete {
					plan.Complete++
				}
			}
		}
		plan.Cells = append(plan.Cells, pc)
	}
	sort.SliceStable(plan.Cells, func(i, j int) bool {
		a, b := plan.Cells[i], plan.Cells[j]
		if a.Complete != b.Complete {
			return a.Complete
		}
		return a.Refs > b.Refs
	})
	return plan
}
