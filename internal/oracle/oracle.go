// Package oracle contains small, slow, obviously-correct reference
// models of the paper's three hierarchies — the direct-mapped L2
// baseline (§4.4), the RAMpage inverted-page-table + clock machine
// (§4.5) and the 2-way associative L2 comparison (§4.7) — plus the
// Direct Rambus timing model (§4.3: 50 ns before the first datum, then
// 2 bytes every 1.25 ns).
//
// The models are written straight from DESIGN.md/PAPER.md with none of
// the production simulator's acceleration machinery: no batched
// executors, no packed-key TLB scans, no split cache hit paths, no
// reusable event buffers. Every structure is a plain struct scan. The
// only code shared with the production tree is the deterministic
// vocabulary the specification itself pins down — the SplitMix64
// stream (internal/xrand), the synthetic OS kernel traces
// (internal/synth) and the primitive types (internal/mem,
// internal/stats) — because the machines are required to be
// bit-identical for the same seed, which fixes those streams as part
// of the spec.
//
// On top of the models sit a reference scheduler and two checking
// tools:
//
//   - schedule.go multiprograms any Machine one Exec at a time under
//     the paper's quantum and switch-on-miss rules, written from the
//     rules alone as the semantic reference for sim.Scheduler;
//   - diff.go replays the same seeded trace through an oracle machine
//     and a production machine in lockstep (per-reference or batched),
//     or runs both under a scheduler, and reports the first divergent
//     reference with full state context;
//   - invariant.go is a metrics.Observer asserting machine-level
//     invariants online (cycle monotonicity and attribution, L1⊆L2 /
//     SRAM residency, TLB↔page-table coherence, clock-hand bounds,
//     DRAM transfer accounting), attachable to any experiment cell via
//     rampage-bench -verify.
package oracle

import (
	"fmt"

	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
)

// Machine is what the oracle drives: references one at a time through
// Exec, operating-system traces through ExecTrace, and the simulated
// clock. Every sim.Machine satisfies it; the oracle's own models
// implement nothing more, so no batch path exists on the reference
// side.
type Machine interface {
	// Exec runs one application reference; a non-zero return is the
	// cycle its page arrives, and the same reference must be retried
	// after that time (the sim.Machine contract).
	Exec(ref mem.Ref) (blockUntil mem.Cycles, err error)
	ExecTrace(refs []mem.Ref, class sim.RefClass) error
	Now() mem.Cycles
	AdvanceTo(t mem.Cycles)
	Report() *stats.Report
}

// Direct Rambus constants, straight from §4.3: "50 ns before the
// first datum, then 2 bytes every 1.25 ns".
const (
	rambusStartPicos = 50_000 // 50 ns startup latency
	rambusPairPicos  = 1_250  // 1.25 ns per 2-byte beat
)

// rambusPicos is the paper's transfer time for n contiguous bytes.
func rambusPicos(n uint64) uint64 {
	return rambusStartPicos + rambusPairPicos*((n+1)/2)
}

// refClock converts absolute DRAM time to CPU cycles, rounding up: a
// device busy for any fraction of a cycle occupies the whole cycle.
// It is derived from the issue rate alone so the oracle's arithmetic
// is independent of mem.Clock's.
type refClock struct {
	cycleTimePicos uint64
}

func newRefClock(c mem.Clock) (refClock, error) {
	mhz := c.IssueMHz()
	if mhz == 0 || 1_000_000%mhz != 0 {
		return refClock{}, fmt.Errorf("oracle: issue rate %d MHz has no integral picosecond cycle time", mhz)
	}
	return refClock{cycleTimePicos: 1_000_000 / mhz}, nil
}

func (c refClock) cyclesFrom(picos uint64) mem.Cycles {
	return mem.Cycles((picos + c.cycleTimePicos - 1) / c.cycleTimePicos)
}

// transferCycles is the CPU-cycle cost of one n-byte Direct Rambus
// transfer at this clock.
func (c refClock) transferCycles(n uint64) mem.Cycles {
	return c.cyclesFrom(rambusPicos(n))
}

// checkParams rejects configurations outside the oracle's scope. The
// oracle models exactly the paper's device: the unpipelined Direct
// Rambus channel with default timing. Ablation variants (pipelined
// channel, SDRAM, banked RDRAM) have no reference model.
func checkParams(p sim.Params) error {
	d, ok := p.DRAM.(dram.DirectRambus)
	if !ok || d != dram.NewDirectRambus() {
		return fmt.Errorf("oracle: only the paper's Direct Rambus device (50 ns + 1.25 ns/2 B) is modeled")
	}
	if p.PipelinedDRAM {
		return fmt.Errorf("oracle: the pipelined DRAM channel ablation is not modeled")
	}
	return nil
}
