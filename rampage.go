// Package rampage is a trace-driven simulator of the RAMpage memory
// hierarchy (Machanick, Salverda & Pompe, "Hardware-Software Trade-Offs
// in a Direct Rambus Implementation of the RAMpage Memory Hierarchy",
// ASPLOS VIII, 1998) together with the conventional-cache baselines the
// paper compares against.
//
// RAMpage replaces the lowest-level cache with a software-managed SRAM
// main memory: allocation and replacement happen per page under
// operating-system control, a pinned inverted page table makes TLB
// misses serviceable without touching DRAM, and DRAM itself is demoted
// to a paging device behind a Direct Rambus channel. Full associativity
// falls out of paging, trading hardware complexity (cache tags and
// associativity logic) for software complexity (page-fault handling) —
// a trade that improves as the CPU–DRAM speed gap grows.
//
// # Quick start
//
// Simulate RAMpage on the paper's 18-program workload at one issue
// rate and page size:
//
//	cfg := rampage.DefaultScaled()
//	rep, err := rampage.Run(context.Background(), cfg, rampage.RunSpec{
//		System:    rampage.SystemRAMpage,
//		IssueMHz:  1000,
//		SizeBytes: 1024,
//	})
//	if err != nil { ... }
//	fmt.Printf("%.4f simulated seconds\n", rep.Seconds())
//
// Reproduce a paper artifact:
//
//	exp, _ := rampage.FindExperiment("table3")
//	text, err := exp.Run(context.Background(), rampage.DefaultScaled(), nil, nil)
//
// The facade re-exports the pieces most users need; the underlying
// packages live in internal/ (core, sim, cache, tlb, dram, pagetable,
// synth, trace, harness) and are documented individually.
package rampage

import (
	"context"

	"rampage/internal/dram"
	"rampage/internal/harness"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// Config is an experimental setup: workload scaling plus memory
// capacities. Use FullScale for the paper's exact parameters or
// DefaultScaled/QuickScaled for interactive work.
type Config = harness.Config

// FullScale returns the paper's configuration: 4 MB L2, 1.1 billion
// references, 500k-reference scheduling quantum.
func FullScale() Config { return harness.FullScale() }

// DefaultScaled returns the scaled default configuration (memories and
// footprints at 1/8, traces at 1/48) preserving capacity ratios.
func DefaultScaled() Config { return harness.DefaultScaled() }

// QuickScaled returns a small configuration for smoke tests and
// benchmarks (~1.1 M references).
func QuickScaled() Config { return harness.QuickScaled() }

// SystemKind selects which machine a RunSpec simulates.
type SystemKind = harness.SystemKind

// The four systems of the paper's evaluation (§4.4–4.7).
const (
	SystemBaselineDM = harness.BaselineDM
	SystemTwoWayL2   = harness.TwoWayL2
	SystemRAMpage    = harness.RAMpage
	SystemRAMpageCS  = harness.RAMpageCS
)

// RunSpec is one simulation point: a system, an issue rate and a
// block/page size, plus optional ablation knobs.
type RunSpec = harness.RunSpec

// Report is a completed run's measurements: simulated seconds,
// per-level time attribution, and event counts.
type Report = stats.Report

// Run executes one simulation point against the Table 2 workload,
// stopping early with ctx.Err() when the context is canceled.
func Run(ctx context.Context, cfg Config, spec RunSpec) (*Report, error) {
	return harness.Run(ctx, cfg, spec)
}

// Sweep runs a grid of points (issue rates × sizes) for one system,
// in parallel across the available CPUs. Cancelling ctx abandons the
// remaining cells.
func Sweep(ctx context.Context, cfg Config, system SystemKind, rates, sizes []uint64, switchTrace bool) ([][]*Report, error) {
	return harness.SweepSpec(ctx, cfg, harness.RunSpec{System: system, SwitchTrace: switchTrace}, rates, sizes)
}

// Experiment reproduces one paper artifact (a table or figure).
type Experiment = harness.Experiment

// Experiments returns all reproducible artifacts in paper order.
func Experiments() []Experiment { return harness.Experiments() }

// FindExperiment looks an artifact up by ID ("table3", "fig4", ...).
func FindExperiment(id string) (Experiment, bool) { return harness.FindExperiment(id) }

// IssueRatesMHz is the paper's issue-rate sweep (200 MHz – 4 GHz).
var IssueRatesMHz = harness.IssueRatesMHz

// BlockSizes is the paper's block/page-size sweep (128 B – 4 KB).
var BlockSizes = harness.BlockSizes

// Profile describes one synthetic Table 2 benchmark.
type Profile = synth.Profile

// GenOptions configures trace generation from a Profile.
type GenOptions = synth.Options

// Table2 returns the 18 benchmark profiles of the paper's workload.
func Table2() []Profile { return synth.Table2() }

// FindProfile returns the Table 2 profile with the given name.
func FindProfile(name string) (Profile, bool) { return synth.FindProfile(name) }

// NewGenerator builds a deterministic reference stream for a profile.
func NewGenerator(p Profile, opts GenOptions) (TraceReader, error) {
	return synth.NewGenerator(p, opts)
}

// TraceReader is a stream of memory references; TraceWriter consumes
// one (typically into a trace file).
type (
	TraceReader = trace.Reader
	TraceWriter = trace.Writer
)

// Machine is a simulated system driven by the Scheduler. Advanced
// users can construct machines directly via the sim configs below.
type Machine = sim.Machine

// Machine and scheduler configuration for direct (non-harness) use.
type (
	Params          = sim.Params
	BaselineConfig  = sim.BaselineConfig
	RAMpageConfig   = sim.RAMpageConfig
	SchedulerConfig = sim.SchedulerConfig
)

// DefaultParams returns the §4.3 common machine parameters at the
// given issue rate.
func DefaultParams(issueMHz uint64) Params { return sim.DefaultParams(issueMHz) }

// NewBaseline builds a conventional-cache machine (direct-mapped or
// N-way L2).
func NewBaseline(cfg BaselineConfig) (Machine, error) { return sim.NewBaseline(cfg) }

// NewRAMpage builds a RAMpage machine.
func NewRAMpage(cfg RAMpageConfig) (Machine, error) { return sim.NewRAMpage(cfg) }

// AdaptiveConfig configures the §6.2 dynamic page-size controller.
type AdaptiveConfig = sim.AdaptiveConfig

// NewAdaptiveRAMpage builds a RAMpage machine that retunes its SRAM
// page size on the fly (§6.2 — a flexibility a hardware cache cannot
// offer).
func NewAdaptiveRAMpage(cfg AdaptiveConfig) (Machine, error) {
	return sim.NewAdaptiveRAMpage(cfg)
}

// NewScheduler builds the multiprogramming driver over one reader per
// process.
func NewScheduler(m Machine, readers []TraceReader, cfg SchedulerConfig) (*sim.Scheduler, error) {
	return sim.NewScheduler(m, readers, cfg)
}

// Device is a timed memory/storage device (Direct Rambus, SDRAM,
// disk); Table1 computes the paper's bandwidth-efficiency comparison.
type Device = dram.Device

// NewDirectRambus returns the paper's DRAM timing: 50 ns + 1.25 ns per
// 2 bytes.
func NewDirectRambus() dram.DirectRambus { return dram.NewDirectRambus() }

// Table1 computes the Table 1 efficiency rows; FormatTable1 renders
// them.
func Table1() []dram.Table1Row { return dram.Table1() }

// FormatTable1 renders Table 1 rows as text.
func FormatTable1(rows []dram.Table1Row) string { return dram.FormatTable1(rows) }
