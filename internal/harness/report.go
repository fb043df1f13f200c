package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"rampage/internal/metrics"
	"rampage/internal/policy"
	"rampage/internal/stats"
)

// ReportVersion is the schema version stamped into every JSON document
// this package emits. Bump it on any incompatible change to the field
// set so tools/regress can refuse to compare mismatched schemas.
const ReportVersion = 1

// ReportJSON is the flattened, stable-schema form of a stats.Report.
// Every field is simulated data — deterministic for a given seed and
// configuration — so golden comparisons may demand exact equality.
type ReportJSON struct {
	Name       string  `json:"name"`
	ClockMHz   uint64  `json:"clock_mhz"`
	BlockBytes uint64  `json:"block_bytes"`
	Cycles     uint64  `json:"cycles"`
	Seconds    float64 `json:"seconds"`

	// LevelCycles attributes simulated time to hierarchy levels, keyed
	// by the paper's figure labels (L1i, L1d, L2/SRAM, DRAM).
	LevelCycles map[string]uint64 `json:"level_cycles"`

	BenchRefs    uint64 `json:"bench_refs"`
	OSTLBRefs    uint64 `json:"os_tlb_refs"`
	OSFaultRefs  uint64 `json:"os_fault_refs"`
	OSSwitchRefs uint64 `json:"os_switch_refs"`

	TLBHits        uint64 `json:"tlb_hits"`
	TLBMisses      uint64 `json:"tlb_misses"`
	TLBEvictions   uint64 `json:"tlb_evictions"`
	ClockScans     uint64 `json:"clock_scans"`
	PageFaults     uint64 `json:"page_faults"`
	L1IMisses      uint64 `json:"l1i_misses"`
	L1DMisses      uint64 `json:"l1d_misses"`
	L2Misses       uint64 `json:"l2_misses"`
	Writebacks     uint64 `json:"writebacks"`
	Switches       uint64 `json:"switches"`
	SwitchesOnMiss uint64 `json:"switches_on_miss"`
	IdleCycles     uint64 `json:"idle_cycles"`
	Resizes        uint64 `json:"resizes"`
	Prefetches     uint64 `json:"prefetches"`
	PrefetchHits   uint64 `json:"prefetch_hits"`
	PrefetchWasted uint64 `json:"prefetch_wasted"`
	PrefetchStalls uint64 `json:"prefetch_stalls"`

	TLBHandlerCycles   uint64 `json:"tlb_handler_cycles"`
	FaultHandlerCycles uint64 `json:"fault_handler_cycles"`
	DRAMTransfers      uint64 `json:"dram_transfers"`
	DRAMBytes          uint64 `json:"dram_bytes"`

	OverheadRatio float64 `json:"overhead_ratio"`
}

// NewReportJSON flattens a stats.Report into its JSON form.
func NewReportJSON(r *stats.Report) ReportJSON {
	levels := make(map[string]uint64, stats.NumLevels)
	for l := stats.Level(0); l < stats.NumLevels; l++ {
		levels[l.String()] = uint64(r.LevelTime[l])
	}
	return ReportJSON{
		Name:               r.Name,
		ClockMHz:           r.Clock.IssueMHz(),
		BlockBytes:         r.BlockBytes,
		Cycles:             uint64(r.Cycles),
		Seconds:            r.Seconds(),
		LevelCycles:        levels,
		BenchRefs:          r.BenchRefs,
		OSTLBRefs:          r.OSTLBRefs,
		OSFaultRefs:        r.OSFaultRefs,
		OSSwitchRefs:       r.OSSwitchRefs,
		TLBHits:            r.TLBHits,
		TLBMisses:          r.TLBMisses,
		TLBEvictions:       r.TLBEvictions,
		ClockScans:         r.ClockScans,
		PageFaults:         r.PageFaults,
		L1IMisses:          r.L1IMisses,
		L1DMisses:          r.L1DMisses,
		L2Misses:           r.L2Misses,
		Writebacks:         r.Writebacks,
		Switches:           r.Switches,
		SwitchesOnMiss:     r.SwitchesOnMiss,
		IdleCycles:         uint64(r.IdleCycles),
		Resizes:            r.Resizes,
		Prefetches:         r.Prefetches,
		PrefetchHits:       r.PrefetchHits,
		PrefetchWasted:     r.PrefetchWasted,
		PrefetchStalls:     r.PrefetchStalls,
		TLBHandlerCycles:   uint64(r.TLBHandlerCycles),
		FaultHandlerCycles: uint64(r.FaultHandlerCycles),
		DRAMTransfers:      r.DRAMTransfers,
		DRAMBytes:          r.DRAMBytes,
		OverheadRatio:      r.OverheadRatio(),
	}
}

// LevelFraction is stats.Report.LevelFraction over the flattened
// report: the fraction of run time spent in a level.
func (r ReportJSON) LevelFraction(l stats.Level) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.LevelCycles[l.String()]) / float64(r.Cycles)
}

// RunDoc is the JSON document for a single simulation run
// (rampage-sim -format json).
type RunDoc struct {
	Version int        `json:"version"`
	Kind    string     `json:"kind"` // "run"
	Report  ReportJSON `json:"report"`
	// Metrics carries the observer's event summary when a collector was
	// attached for the run.
	Metrics *metrics.Summary `json:"metrics,omitempty"`
}

// NewRunDoc wraps one report (and an optional collector summary) in a
// versioned document.
func NewRunDoc(r *stats.Report, c *metrics.Collector) RunDoc {
	doc := RunDoc{Version: ReportVersion, Kind: "run", Report: NewReportJSON(r)}
	if c != nil {
		doc.Metrics = c.Summary()
	}
	return doc
}

// SystemGrid is one system's sweep inside an ExperimentDoc: reports
// indexed [rate][size], matching the document's RatesMHz × SizesBytes.
type SystemGrid struct {
	System      string         `json:"system"`
	SwitchTrace bool           `json:"switch_trace"`
	Rows        [][]ReportJSON `json:"rows"`
}

// ExperimentDoc is the JSON document for one experiment's sweep grids
// (rampage-bench -format json). Only the sweep-structured experiments
// (Tables 3–5, Figures 2–4 and the policy lab) have a JSON form; their
// text is rendered from the document, and the other artifacts have
// text only.
type ExperimentDoc struct {
	Version    int          `json:"version"`
	Kind       string       `json:"kind"` // "experiment"
	ID         string       `json:"id"`
	Title      string       `json:"title"`
	RatesMHz   []uint64     `json:"rates_mhz"`
	SizesBytes []uint64     `json:"sizes_bytes"`
	Systems    []SystemGrid `json:"systems"`
}

// docForm is the document structure of an experiment with a JSON
// form: one sweep grid per system, with that system's switch-trace
// setting and replacement policy (nil policies = clock throughout).
// text renders the experiment's text from its document; reruns, when
// set, names document cells the text simulates a second time, and
// text receives their reports in that order.
type docForm struct {
	systems     []SystemKind
	switchTrace []bool
	policies    []string
	reruns      func(ExperimentShape) []RunSpec
	text        func(doc ExperimentDoc, reruns []ReportJSON) string
}

// SystemLabel names a system as result documents and job events label
// it: the system, suffixed with the replacement policy when it is not
// the default clock.
func SystemLabel(system SystemKind, pol string) string {
	if p := policy.Normalize(pol); p != "" {
		return system.String() + "+" + p
	}
	return system.String()
}

// ExperimentShape is the resolved sweep structure of a JSON-form
// experiment: the normalized grid plus the systems it crosses. Every
// experiment document is built from one: ShapeOf expands the request,
// CellSpecs enumerates the simulation points, a cell runner (RunCells
// in process, fleet.Coordinator.RunCells across workers) runs them,
// and Doc folds their reports into the document.
type ExperimentShape struct {
	ID         string
	Title      string
	RatesMHz   []uint64
	SizesBytes []uint64
	// Systems, SwitchTrace and Policies are parallel: one sweep grid
	// per entry. An empty policy string means clock.
	Systems     []SystemKind
	SwitchTrace []bool
	Policies    []string
}

// ShapeOf resolves an experiment's sweep shape under a requested grid
// (empty slices select the paper defaults; the figure experiments and
// the policy lab pin their own issue rate). Experiments without a JSON
// form error, as do grids with zero or repeated values and grids with
// any cell that fails RunSpec.Validate, so a bad request is refused
// before anything runs.
func ShapeOf(id string, rates, sizes []uint64) (ExperimentShape, error) {
	e, ok := FindExperiment(id)
	if !ok || e.form == nil {
		return ExperimentShape{}, fmt.Errorf("harness: experiment %q has no JSON form", id)
	}
	rates, sizes = e.grid(rates, sizes)
	for _, grid := range [][]uint64{rates, sizes} {
		if err := checkGrid(grid); err != nil {
			return ExperimentShape{}, err
		}
	}
	shape := e.form
	policies := make([]string, len(shape.systems))
	for i := range policies {
		if shape.policies != nil {
			policies[i] = policy.Normalize(shape.policies[i])
		}
	}
	// RunSpec.Validate checks each field on its own, so pairing every
	// rate with the first size and every size with the first rate
	// validates the whole cross product without building it.
	for i, system := range shape.systems {
		base := RunSpec{System: system, SwitchTrace: shape.switchTrace[i], Policy: policies[i]}
		for _, cell := range append(gridSpecs(base, rates, sizes[:1]), gridSpecs(base, rates[:1], sizes)...) {
			if err := cell.Validate(); err != nil {
				return ExperimentShape{}, err
			}
		}
	}
	return ExperimentShape{
		ID:          id,
		Title:       e.Title,
		RatesMHz:    rates,
		SizesBytes:  sizes,
		Systems:     shape.systems,
		SwitchTrace: shape.switchTrace,
		Policies:    policies,
	}, nil
}

// CellSpecs enumerates every simulation point of the experiment in the
// document's canonical order: systems outermost, then rates, then
// sizes. Doc expects reports aligned with this order.
func (sh ExperimentShape) CellSpecs() []RunSpec {
	specs := make([]RunSpec, 0, len(sh.Systems)*len(sh.RatesMHz)*len(sh.SizesBytes))
	for i, system := range sh.Systems {
		for _, rate := range sh.RatesMHz {
			for _, size := range sh.SizesBytes {
				specs = append(specs, RunSpec{
					System:      system,
					IssueMHz:    rate,
					SizeBytes:   size,
					SwitchTrace: sh.SwitchTrace[i],
					Policy:      sh.Policies[i],
				})
			}
		}
	}
	return specs
}

// Doc assembles the experiment document from per-cell reports aligned
// with CellSpecs order. It is the only code that turns reports into an
// ExperimentDoc, so a document is byte-identical (under WriteJSON)
// wherever its cells ran — in process, on fleet workers, or from a
// store.
func (sh ExperimentShape) Doc(reports []ReportJSON) (ExperimentDoc, error) {
	want := len(sh.Systems) * len(sh.RatesMHz) * len(sh.SizesBytes)
	if len(reports) != want {
		return ExperimentDoc{}, fmt.Errorf("harness: %s: got %d cell reports, want %d", sh.ID, len(reports), want)
	}
	doc := ExperimentDoc{
		Version:    ReportVersion,
		Kind:       "experiment",
		ID:         sh.ID,
		Title:      sh.Title,
		RatesMHz:   sh.RatesMHz,
		SizesBytes: sh.SizesBytes,
	}
	k := 0
	for i, system := range sh.Systems {
		rows := make([][]ReportJSON, len(sh.RatesMHz))
		for r := range sh.RatesMHz {
			rows[r] = make([]ReportJSON, len(sh.SizesBytes))
			for c := range sh.SizesBytes {
				rows[r][c] = reports[k]
				k++
			}
		}
		doc.Systems = append(doc.Systems, SystemGrid{
			System:      SystemLabel(system, sh.Policies[i]),
			SwitchTrace: sh.SwitchTrace[i],
			Rows:        rows,
		})
	}
	return doc, nil
}

// BuildExperimentDoc runs an experiment's cells in process and
// returns the versioned JSON document: ShapeOf, then RunCells over
// CellSpecs, then Doc. It supports the experiments whose
// Experiment.HasJSONForm holds; others return an error. Cancelling
// ctx aborts the run and returns ctx.Err().
func BuildExperimentDoc(ctx context.Context, cfg Config, id string, rates, sizes []uint64) (ExperimentDoc, error) {
	sh, err := ShapeOf(id, rates, sizes)
	if err != nil {
		return ExperimentDoc{}, err
	}
	reports, err := RunCells(ctx, cfg, sh.CellSpecs(), nil)
	if err != nil {
		return ExperimentDoc{}, err
	}
	return sh.Doc(reports)
}

// WriteJSON encodes a document with stable indentation and a trailing
// newline — the byte layout committed goldens use.
func WriteJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
