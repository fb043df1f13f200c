package oracle

import (
	"fmt"

	"rampage/internal/cache"
	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/synth"
)

// Baseline is the reference model of the conventional hierarchy (§4.4
// direct-mapped, §4.7 2-way): split L1 in front of a unified L2, a TLB
// translating to DRAM physical addresses, and an inverted page table in
// DRAM. It implements Machine and is required to produce a report
// bit-identical to sim.Baseline's for the same configuration and trace.
type Baseline struct {
	cfg    sim.BaselineConfig
	clk    refClock
	l1i    *refCache
	l1d    *refCache
	l2     *refCache
	tlb    *refTLB
	pt     *refPageTable
	kernel *synth.Kernel

	kernelBytes uint64
	rep         stats.Report
}

// NewBaseline builds the reference machine. Configurations outside the
// paper's device envelope (victim cache, non-Rambus DRAM, pipelined
// channel) are rejected: they have no reference model.
func NewBaseline(cfg sim.BaselineConfig) (*Baseline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkParams(cfg.Params); err != nil {
		return nil, err
	}
	if cfg.VictimEntries > 0 {
		return nil, fmt.Errorf("oracle: the victim-cache ablation is not modeled")
	}
	if cfg.DRAMBytes == 0 {
		cfg.DRAMBytes = 64 << 20
	}
	if cfg.L1WBPenalty == 0 {
		cfg.L1WBPenalty = 12
	}
	clk, err := newRefClock(cfg.Clock)
	if err != nil {
		return nil, err
	}
	l1i, err := newRefCache(cfg.L1Bytes, cfg.L1Block, cfg.L1Assoc, false, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	l1d, err := newRefCache(cfg.L1Bytes, cfg.L1Block, cfg.L1Assoc, false, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	l2, err := newRefCache(cfg.L2Bytes, cfg.L2Block, cfg.L2Assoc, cfg.L2Policy == cache.RandomRepl, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	tb, err := newRefTLB(cfg.TLBEntries, cfg.TLBAssoc, dramPageBytes, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	// Random page placement, like the production machine: it is what
	// exposes the direct-mapped L2 to conflict misses.
	pt, err := newRefPageTable(cfg.DRAMBytes/dramPageBytes, dramPageBytes,
		synth.KernelBase+synth.KernelFixedBytes, true, cfg.Seed, "clock", 0)
	if err != nil {
		return nil, err
	}
	b := &Baseline{
		cfg:    cfg,
		clk:    clk,
		l1i:    l1i,
		l1d:    l1d,
		l2:     l2,
		tlb:    tb,
		pt:     pt,
		kernel: synth.NewKernel(cfg.Seed + 5),
	}
	// Reserve the kernel region (fixed span + the page table itself) at
	// the bottom of DRAM, identity-mapped from the kernel virtual range.
	b.kernelBytes = synth.KernelFixedBytes + pt.tableBytes()
	kpages := (b.kernelBytes + dramPageBytes - 1) / dramPageBytes
	for i := uint64(0); i < kpages; i++ {
		f, ok := pt.allocFree()
		if !ok || f != i {
			return nil, fmt.Errorf("oracle: kernel DRAM reservation failed at page %d", i)
		}
		if err := pt.mapFrame(mem.KernelPID, (uint64(synth.KernelBase)>>12)+i, f); err != nil {
			return nil, err
		}
		pt.pin(f)
	}
	name := "baseline-dm"
	if cfg.L2Assoc > 1 {
		name = fmt.Sprintf("l2-%dway", cfg.L2Assoc)
	}
	b.rep = stats.Report{Name: name, Clock: cfg.Clock, BlockBytes: cfg.L2Block}
	return b, nil
}

// dramPageBytes is the fixed DRAM page size (§2.4).
const dramPageBytes = 4096

// Report implements Machine.
func (b *Baseline) Report() *stats.Report { return &b.rep }

// Now implements Machine.
func (b *Baseline) Now() mem.Cycles { return b.rep.Cycles }

// AdvanceTo implements Machine.
func (b *Baseline) AdvanceTo(t mem.Cycles) {
	if t > b.rep.Cycles {
		idle := t - b.rep.Cycles
		b.rep.IdleCycles += idle
		b.rep.Charge(stats.DRAM, idle)
	}
}

// Exec implements Machine. The baseline never blocks.
func (b *Baseline) Exec(ref mem.Ref) (mem.Cycles, error) {
	return 0, b.execOne(ref, sim.ClassBench)
}

// ExecTrace implements Machine.
func (b *Baseline) ExecTrace(refs []mem.Ref, class sim.RefClass) error {
	for _, r := range refs {
		if err := b.execOne(r, class); err != nil {
			return err
		}
	}
	return nil
}

func (b *Baseline) countRef(class sim.RefClass) {
	switch class {
	case sim.ClassBench:
		b.rep.BenchRefs++
	case sim.ClassTLB:
		b.rep.OSTLBRefs++
	case sim.ClassFault:
		b.rep.OSFaultRefs++
	case sim.ClassSwitch:
		b.rep.OSSwitchRefs++
	}
}

func (b *Baseline) execOne(ref mem.Ref, class sim.RefClass) error {
	pa, err := b.translate(ref)
	if err != nil {
		return err
	}
	b.countRef(class)
	b.accessL1(ref.Kind, pa)
	return nil
}

// translate resolves a reference to a DRAM physical address through the
// TLB, replaying the TLB-miss (and first-touch table-update) handler
// traces when needed.
func (b *Baseline) translate(ref mem.Ref) (mem.PAddr, error) {
	if ref.PID == mem.KernelPID {
		off := uint64(ref.Addr) - synth.KernelBase
		if uint64(ref.Addr) < synth.KernelBase || off >= b.kernelBytes {
			return 0, fmt.Errorf("oracle: kernel address %#x outside reserved region", uint64(ref.Addr))
		}
		return mem.PAddr(off), nil
	}
	if pa, hit := b.tlb.lookup(ref.PID, ref.Addr); hit {
		b.rep.TLBHits++
		return pa, nil
	}
	b.rep.TLBMisses++
	vpn := uint64(ref.Addr) >> 12
	frame, probes, found := b.pt.lookup(ref.PID, vpn, nil)
	var updates []uint64
	if !found {
		// First touch: infinite DRAM hands out a fresh frame; the
		// handler updates the table (a compulsory, disk-free "fault").
		f, ok := b.pt.allocFree()
		if !ok {
			return 0, fmt.Errorf("oracle: DRAM exhausted; raise DRAMBytes above the workload footprint")
		}
		if err := b.pt.mapFrame(ref.PID, vpn, f); err != nil {
			return 0, err
		}
		frame = f
		updates = append(updates, b.pt.entryAddr(f))
	}
	b.tlb.insert(ref.PID, ref.Addr, frame)
	// Interleave the page-lookup software trace (§4.3).
	trc := b.kernel.AppendTLBMiss(nil, probes)
	start := b.rep.Cycles
	if err := b.ExecTrace(trc, sim.ClassTLB); err != nil {
		return 0, err
	}
	b.rep.TLBHandlerCycles += b.rep.Cycles - start
	if len(updates) > 0 {
		trc = b.kernel.AppendPageFault(nil, nil, updates)
		start = b.rep.Cycles
		if err := b.ExecTrace(trc, sim.ClassFault); err != nil {
			return 0, err
		}
		b.rep.FaultHandlerCycles += b.rep.Cycles - start
	}
	off := uint64(ref.Addr) & (dramPageBytes - 1)
	return mem.PAddr(frame<<12 | off), nil
}

// l1side returns the L1 cache a reference kind uses.
func (b *Baseline) l1side(kind mem.RefKind) *refCache {
	if kind.IsData() {
		return b.l1d
	}
	return b.l1i
}

// accessL1 runs the reference through the split L1 and, on a miss, the
// L2 and DRAM levels, charging time per §4.3–4.4.
func (b *Baseline) accessL1(kind mem.RefKind, pa mem.PAddr) {
	if kind == mem.IFetch {
		// Only instruction fetches add to run time on a hit (§4.3).
		b.rep.Charge(stats.L1I, 1)
	}
	res := b.l1side(kind).access(pa, kind == mem.Store)
	if res.hit {
		return
	}
	if kind == mem.IFetch {
		b.rep.L1IMisses++
	} else {
		b.rep.L1DMisses++
	}
	b.rep.Charge(stats.L2, b.cfg.L1MissPenalty)
	b.accessL2(pa)
	if res.evictedDirty {
		// Write the dirty L1 block back to L2 (write-back, §4.3).
		b.rep.Charge(stats.L2, b.cfg.L1WBPenalty)
		b.writebackToL2(res.writebackAddr)
	}
}

// accessL2 looks up the block containing pa, fetching it from DRAM on a
// miss and maintaining inclusion with L1.
func (b *Baseline) accessL2(pa mem.PAddr) {
	res := b.l2.access(pa, false)
	if res.hit {
		return
	}
	b.rep.L2Misses++
	b.dramTransfer()
	b.handleL2Eviction(res)
}

// dramTransfer charges one real L2-block transfer on the Rambus channel
// and accounts it (fills and write-backs alike).
func (b *Baseline) dramTransfer() {
	b.rep.DRAMTransfers++
	b.rep.DRAMBytes += b.cfg.L2Block
	b.rep.Charge(stats.DRAM, b.clk.transferCycles(b.cfg.L2Block))
}

// handleL2Eviction maintains inclusion (purging the departing block
// from L1) and charges the DRAM write-back for dirty departures.
func (b *Baseline) handleL2Eviction(res refCacheResult) {
	if !res.evicted {
		return
	}
	dirtyL1 := b.purgeL1(res.evictedAddr, b.cfg.L2Block)
	if res.evictedDirty || dirtyL1 > 0 {
		b.rep.Writebacks++
		b.dramTransfer()
	}
}

// purgeL1 invalidates [addr, addr+size) from both L1 sides, charging
// one cycle per present block and the write-back penalty for dirty data
// blocks, exactly as the production inclusion purge does.
func (b *Baseline) purgeL1(addr mem.PAddr, size uint64) (dirtyBlocks int) {
	b.l1i.invalidateRange(addr, size, func(block mem.PAddr, dirty bool) {
		b.rep.Charge(stats.L1I, 1)
	})
	b.l1d.invalidateRange(addr, size, func(block mem.PAddr, dirty bool) {
		b.rep.Charge(stats.L1D, 1)
		if dirty {
			b.rep.Charge(stats.L2, b.cfg.L1WBPenalty)
			dirtyBlocks++
		}
	})
	return dirtyBlocks
}

// writebackToL2 lands a dirty L1 block in L2, allocating it again if
// the very fill that evicted it displaced its parent block.
func (b *Baseline) writebackToL2(addr mem.PAddr) {
	res := b.l2.access(addr, true)
	if res.hit {
		return
	}
	b.rep.L2Misses++
	b.dramTransfer()
	b.handleL2Eviction(res)
}

// StateSummary describes the machine's internal state for divergence
// reports.
func (b *Baseline) StateSummary() string {
	l1iv, l1id := b.l1i.countValid()
	l1dv, l1dd := b.l1d.countValid()
	l2v, l2d := b.l2.countValid()
	ptv, ptp := b.pt.countValid()
	return fmt.Sprintf("l1i %d lines (%d dirty), l1d %d lines (%d dirty), l2 %d lines (%d dirty), tlb %d entries, pt %d mapped (%d pinned), %s",
		l1iv, l1id, l1dv, l1dd, l2v, l2d, b.tlb.countValid(), ptv, ptp, b.pt.pol.stateSummary())
}
