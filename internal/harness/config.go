// Package harness configures and runs the paper's experiments: the
// elapsed-time sweeps of Tables 3–5 and the breakdown figures 2–5,
// plus the ablations listed in DESIGN.md. It owns the scaled default
// configuration (smaller memories and shorter traces with preserved
// footprint-to-capacity ratios) and the full-scale paper configuration.
package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rampage/internal/checkpoint"
	"rampage/internal/core"
	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// IssueRatesMHz is the paper's issue-rate sweep (§4.3: 200 MHz–4 GHz).
var IssueRatesMHz = []uint64{200, 400, 800, 1000, 2000, 4000}

// BlockSizes is the paper's block/page-size sweep (§4.4: 128 B–4 KB).
var BlockSizes = []uint64{128, 256, 512, 1024, 2048, 4096}

// Config describes one experimental setup: workload scaling plus
// memory capacities.
type Config struct {
	// Seed drives every deterministic choice.
	Seed uint64
	// RefScale scales the Table 2 reference counts; SizeScale scales
	// both workload footprints and is matched by the L2/SRAM capacity
	// below.
	RefScale  float64
	SizeScale float64
	// L2Bytes is the conventional L2 capacity (4 MB in the paper,
	// scaled by default). The RAMpage SRAM size is derived from it.
	L2Bytes uint64
	// DRAMBytes bounds the "infinite" DRAM (must exceed the scaled
	// workload footprint).
	DRAMBytes uint64
	// Quantum is the scheduler time slice in references (§4.2:
	// 500,000; scaled by default so the switch *rate* per reference
	// matches the paper).
	Quantum uint64
	// ProfileName names the workload (synth.Workload): "" is the
	// Table 2 set, a Table 2 program's name is that program alone (the
	// per-benchmark study) and "phased" is the phased set (the §6.2
	// phased-workload study). Processes limits the workload to its
	// first N programs (0 = all of them).
	Processes   int
	ProfileName string
	// MaxRefs caps application references per run (0 = run traces to
	// completion).
	MaxRefs uint64
	// Workers bounds the in-process cell pool's parallelism (RunCells
	// and everything on it; 0 = one worker per CPU). Results are
	// deterministic regardless of the setting.
	Workers int
	// Observer, when non-nil, is attached to the machine and the
	// scheduler for the run: it receives event probes and periodic Tick
	// calls but never influences the simulation (reports stay
	// bit-identical). A metrics.Collector is not safe for concurrent
	// use, so the cell pool ignores this field — observers are per-run
	// only.
	Observer metrics.Observer
	// Checkpoints, when non-nil, attaches a warm-state checkpoint store:
	// runs capture their final machine+scheduler state and later runs of
	// the same warm-up prefix restore the newest dominating checkpoint
	// instead of re-simulating it. Restored runs are bit-identical to
	// from-scratch runs, so — like Verify and the execution knobs — the
	// store is excluded from result cache keys. The store is safe for
	// concurrent use and may be shared across sweeps.
	Checkpoints *checkpoint.Store
	// Verify attaches the oracle invariant checker (package oracle) to
	// every run: machine-level invariants are asserted online and a
	// violation fails the run with a descriptive error. Observation is
	// read-only — reports stay bit-identical — so, like the execution
	// knobs above, Verify is excluded from result cache keys. Each run
	// gets its own checker, so verified sweeps remain parallel-safe.
	Verify bool
}

// FullScale returns the paper's exact configuration: 4 MB L2, 1.1
// billion references, 500 k-reference quantum. A full sweep at this
// scale takes hours; use DefaultScaled for interactive work.
func FullScale() Config {
	return Config{
		Seed:      42,
		RefScale:  1.0,
		SizeScale: 1.0,
		L2Bytes:   4 << 20,
		DRAMBytes: 256 << 20,
		Quantum:   500_000,
	}
}

// DefaultScaled returns the scaled default: memories and footprints at
// 1/8, traces at 1/48 (~23 M combined references), quantum scaled with
// the footprint (1/8) so a process still amortizes its working-set
// reload over the same fraction of its slice as in the paper. Capacity
// ratios — the quantity the paper's comparisons depend on — are
// preserved.
func DefaultScaled() Config {
	return Config{
		Seed:      42,
		RefScale:  1.0 / 48,
		SizeScale: 1.0 / 8,
		L2Bytes:   512 << 10,
		DRAMBytes: 64 << 20,
		Quantum:   500_000 / 8,
	}
}

// QuickScaled returns a much smaller configuration for smoke tests and
// testing.B benchmarks: ~1.1 M references against 1/16-scale memories.
func QuickScaled() Config {
	return Config{
		Seed:      42,
		RefScale:  1.0 / 1000,
		SizeScale: 1.0 / 16,
		L2Bytes:   256 << 10,
		DRAMBytes: 32 << 20,
		Quantum:   500_000 / 16,
	}
}

// Validate checks the configuration, returning a descriptive error for
// every way a Config can be malformed (zero or negative scales, broken
// capacities, unknown profiles) instead of letting the machine layers
// panic or silently default.
func (c Config) Validate() error {
	if c.RefScale <= 0 || c.SizeScale <= 0 {
		return fmt.Errorf("harness: scales must be positive (RefScale=%g, SizeScale=%g)", c.RefScale, c.SizeScale)
	}
	if math.IsNaN(c.RefScale) || math.IsInf(c.RefScale, 0) ||
		math.IsNaN(c.SizeScale) || math.IsInf(c.SizeScale, 0) {
		return fmt.Errorf("harness: scales must be finite (RefScale=%g, SizeScale=%g)", c.RefScale, c.SizeScale)
	}
	if c.L2Bytes == 0 || !mem.IsPow2(c.L2Bytes) {
		return fmt.Errorf("harness: L2 size %d is not a positive power of two", c.L2Bytes)
	}
	if c.DRAMBytes != 0 && !mem.IsPow2(c.DRAMBytes) {
		return fmt.Errorf("harness: DRAM size %d is not a power of two", c.DRAMBytes)
	}
	if c.Quantum == 0 {
		return fmt.Errorf("harness: zero scheduling quantum (references per time slice)")
	}
	if c.Processes < 0 {
		return fmt.Errorf("harness: negative process count %d", c.Processes)
	}
	if c.Workers < 0 {
		return fmt.Errorf("harness: negative sweep worker count %d", c.Workers)
	}
	if c.ProfileName != "" {
		if _, ok := synth.Workload(c.ProfileName); !ok {
			return fmt.Errorf("harness: unknown profile %q (want a Table 2 program or %q)", c.ProfileName, synth.Phased)
		}
	}
	return nil
}

// ScaleNames lists the named configurations ConfigForScale accepts.
var ScaleNames = []string{"quick", "default", "full"}

// ConfigForScale maps a workload-scale name shared by the CLIs and the
// experiment service ("quick", "default", "full") to its configuration.
func ConfigForScale(name string) (Config, error) {
	switch name {
	case "quick":
		return QuickScaled(), nil
	case "default":
		return DefaultScaled(), nil
	case "full":
		return FullScale(), nil
	default:
		return Config{}, fmt.Errorf("harness: unknown scale %q (want quick, default or full)", name)
	}
}

// ParseSystemKind maps the user-facing system names (CLI flags, API
// requests) to a SystemKind, accepting the short aliases the CLIs have
// always taken.
func ParseSystemKind(name string) (SystemKind, error) {
	switch name {
	case "baseline", "baseline-dm", "dm":
		return BaselineDM, nil
	case "2way", "l2-2way":
		return TwoWayL2, nil
	case "rampage":
		return RAMpage, nil
	case "rampage-cs", "cs":
		return RAMpageCS, nil
	default:
		return 0, fmt.Errorf("harness: unknown system %q (want baseline, 2way, rampage or rampage-cs)", name)
	}
}

// ParseGridList parses a comma-separated list of issue rates or sizes
// ("200,400,800"); an empty string selects the paper default (nil).
// Malformed entries are rejected with the offending entry named, and
// the list must pass checkGrid.
func ParseGridList(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("harness: bad grid value %q: %w", part, err)
		}
		out = append(out, v)
	}
	if err := checkGrid(out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkGrid rejects zero and repeated grid values: a zero would
// surface later as a confusing per-cell simulation error, and a
// duplicate would run the same cell twice.
func checkGrid(vals []uint64) error {
	seen := make(map[uint64]bool, len(vals))
	for _, v := range vals {
		if v == 0 {
			return fmt.Errorf("harness: zero grid value (rates and sizes must be positive)")
		}
		if seen[v] {
			return fmt.Errorf("harness: duplicate grid value %d", v)
		}
		seen[v] = true
	}
	return nil
}

// SRAMBytes returns the RAMpage SRAM capacity for a given page size:
// the L2 capacity plus the tag budget the cache would have spent,
// rounded up to a whole page (§4.5: "128 Kbytes larger ... scaled down
// for larger page sizes").
func (c Config) SRAMBytes(pageBytes uint64) uint64 {
	bonus := mem.AlignUp(core.TagBonus(c.L2Bytes, pageBytes), pageBytes)
	return c.L2Bytes + bonus
}

// Readers builds the per-process workload streams: one generator per
// program of the named workload, deterministic for the configuration's
// seed.
func (c Config) Readers() ([]trace.Reader, error) {
	profiles, ok := synth.Workload(c.ProfileName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown profile %q", c.ProfileName)
	}
	if c.Processes > 0 && c.Processes < len(profiles) {
		profiles = profiles[:c.Processes]
	}
	readers := make([]trace.Reader, 0, len(profiles))
	for _, p := range profiles {
		g, err := synth.NewGenerator(p, synth.Options{
			Seed:      c.Seed,
			RefScale:  c.RefScale,
			SizeScale: c.SizeScale,
		})
		if err != nil {
			return nil, err
		}
		readers = append(readers, g)
	}
	return readers, nil
}
