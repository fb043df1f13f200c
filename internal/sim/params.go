// Package sim contains the trace-driven hierarchy simulators that
// produce the paper's results: the baseline conventional-cache machine
// (direct-mapped or 2-way L2, §4.4/§4.7), the RAMpage machine (§4.5),
// and the multiprogramming scheduler with optional context switches on
// misses (§4.6).
//
// The simulators are cycle-accounting models, not event-driven
// pipelines, matching the paper's methodology (§4.3): a single-cycle
// non-superscalar CPU whose issue rate models a superscalar design;
// TLB and L1 data hits fully pipelined (zero time); only instruction
// fetches and miss penalties advance simulated time. DRAM timing is in
// absolute nanoseconds and does not scale with the CPU clock, which is
// how the growing CPU–DRAM gap is modeled.
package sim

import (
	"fmt"

	"rampage/internal/dram"
	"rampage/internal/mem"
)

// Params are the §4.3 common features shared by every simulated
// machine.
type Params struct {
	// Clock is the CPU issue rate.
	Clock mem.Clock
	// L1Bytes is the size of EACH of the split instruction and data
	// caches (16 KB); L1Block their block size (32 B); L1Assoc their
	// associativity (1; the §6.3 "more aggressive L1" ablation uses 8).
	L1Bytes uint64
	L1Block uint64
	L1Assoc int
	// L1MissPenalty is the CPU-cycle cost of an L1 miss satisfied by
	// the next SRAM level (12 = 4 bus cycles at one third the CPU
	// clock, §4.4). L1WBPenalty is the dirty-eviction write-back cost;
	// zero selects the machine default (12 for the baseline, 9 for
	// RAMpage, which has no L2 tag to update — §4.3).
	L1MissPenalty mem.Cycles
	L1WBPenalty   mem.Cycles
	// TLBEntries/TLBAssoc configure the TLB (64 fully associative;
	// assoc 0 = full).
	TLBEntries int
	TLBAssoc   int
	// DRAM is the paging/backing device — Direct Rambus in the paper,
	// but any dram.Device (e.g. the §3.3 SDRAM design) can be swapped
	// in. PipelinedDRAM enables the §6.3 pipelined-channel variant.
	DRAM          dram.Device
	PipelinedDRAM bool
	// Seed drives every deterministic random choice in the machine.
	Seed uint64
}

// DefaultParams returns the §4.3 configuration at the given issue
// rate: 16 KB + 16 KB direct-mapped L1 with 32 B blocks, 12-cycle miss
// penalty, 64-entry fully-associative TLB, unpipelined Direct Rambus.
func DefaultParams(issueMHz uint64) Params {
	return Params{
		Clock:         mem.MustClock(issueMHz),
		L1Bytes:       16 << 10,
		L1Block:       32,
		L1Assoc:       1,
		L1MissPenalty: 12,
		TLBEntries:    64,
		TLBAssoc:      0,
		DRAM:          dram.NewDirectRambus(),
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Clock.IssueMHz() == 0 {
		return fmt.Errorf("sim: zero clock")
	}
	if p.L1Bytes == 0 || p.L1Block == 0 || p.L1Assoc < 1 {
		return fmt.Errorf("sim: incomplete L1 configuration")
	}
	if p.TLBEntries <= 0 {
		return fmt.Errorf("sim: TLB entries must be positive")
	}
	if p.DRAM == nil {
		return fmt.Errorf("sim: no DRAM device configured")
	}
	return nil
}

// transferCycles converts a DRAM transfer of n bytes into CPU cycles
// at this machine's clock.
func (p Params) transferCycles(n uint64) mem.Cycles {
	return p.Clock.CyclesFrom(p.DRAM.TransferTime(n))
}

// dataCycles is the data phase of a transfer alone (without the
// startup latency) — the marginal cost of a back-to-back transfer on a
// pipelined channel (§3.3, the §6.3 ablation).
func (p Params) dataCycles(n uint64) mem.Cycles {
	return p.Clock.CyclesFrom(p.DRAM.TransferTime(n) - dram.StartupTime(p.DRAM))
}

// transferCyclesAt times an n-byte transfer at a specific DRAM
// address, exploiting bank/row-buffer state when the device models it
// (dram.Addressed); otherwise it falls back to the flat timing.
func (p Params) transferCyclesAt(addr, n uint64) mem.Cycles {
	if ad, ok := p.DRAM.(dram.Addressed); ok {
		return p.Clock.CyclesFrom(ad.TransferTimeAt(addr, n))
	}
	return p.transferCycles(n)
}

// startupCycles is the device's fixed startup latency in cycles — the
// portion a pipelined channel can overlap.
func (p Params) startupCycles() mem.Cycles {
	return p.Clock.CyclesFrom(dram.StartupTime(p.DRAM))
}

// RefClass classifies executed references for the overhead accounting
// of Figure 4.
type RefClass uint8

const (
	// ClassBench is an application reference from the trace.
	ClassBench RefClass = iota
	// ClassTLB is a TLB-miss handler reference.
	ClassTLB
	// ClassFault is a page-fault handler reference.
	ClassFault
	// ClassSwitch is a context-switch code reference.
	ClassSwitch
)
