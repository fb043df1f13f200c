package oracle

import (
	"fmt"

	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/synth"
)

// refMemory is the reference SRAM main memory of §2: a paged physical
// memory managed by an inverted page table with clock replacement,
// fronted by a TLB, with the OS region (fixed kernel span + the table
// itself) identity-pinned in the lowest frames.
type refMemory struct {
	pt        *refPageTable
	tlb       *refTLB
	pageBytes uint64
	pageShift uint
	frames    uint64
	osPages   uint64

	seen     map[refSeenKey]uint64 // virtual page -> backing DRAM address
	dramNext uint64                // DRAM allocation watermark
}

type refSeenKey struct {
	pid mem.PID
	vpn uint64
}

// refFault describes one SRAM page fault, mirroring core.Fault.
type refFault struct {
	scanAddrs        []uint64
	updateAddrs      []uint64
	victimValid      bool
	victimDirty      bool
	victimTLBEvicted bool
	victimPageAddr   mem.PAddr
	firstTouch       bool
	pageDRAMAddr     uint64
	victimDRAMAddr   uint64
}

// refOutcome describes one translation, mirroring core.Outcome.
type refOutcome struct {
	addr     mem.PAddr
	tlbMiss  bool
	ptProbes []uint64
	fault    *refFault
}

func newRefMemory(totalBytes, pageBytes uint64, tlbEntries, tlbAssoc int, seed uint64, policyName string) (*refMemory, error) {
	if pageBytes == 0 || !mem.IsPow2(pageBytes) {
		return nil, fmt.Errorf("oracle: page size %d is not a power of two", pageBytes)
	}
	if totalBytes == 0 || totalBytes%pageBytes != 0 {
		return nil, fmt.Errorf("oracle: SRAM size %d is not a multiple of page size %d", totalBytes, pageBytes)
	}
	frames := totalBytes / pageBytes
	pt, err := newRefPageTable(frames, pageBytes, synth.KernelBase+synth.KernelFixedBytes, false, 0, policyName, seed)
	if err != nil {
		return nil, err
	}
	tb, err := newRefTLB(tlbEntries, tlbAssoc, pageBytes, seed)
	if err != nil {
		return nil, err
	}
	m := &refMemory{
		pt:        pt,
		tlb:       tb,
		pageBytes: pageBytes,
		pageShift: mem.Log2(pageBytes),
		frames:    frames,
		seen:      make(map[refSeenKey]uint64),
	}
	osBytes := synth.KernelFixedBytes + pt.tableBytes()
	m.osPages = (osBytes + pageBytes - 1) / pageBytes
	if m.osPages >= frames {
		return nil, fmt.Errorf("oracle: OS reservation (%d pages) exceeds SRAM (%d frames) at page size %d",
			m.osPages, frames, pageBytes)
	}
	// Pin the OS region in the lowest frames, mapped under the kernel
	// PID so the table is self-describing.
	for i := uint64(0); i < m.osPages; i++ {
		f, ok := pt.allocFree()
		if !ok || f != i {
			return nil, fmt.Errorf("oracle: OS frame allocation out of order (got %d, want %d)", f, i)
		}
		vpn := (uint64(synth.KernelBase) >> m.pageShift) + i
		if err := pt.mapFrame(mem.KernelPID, vpn, f); err != nil {
			return nil, err
		}
		pt.pin(f)
	}
	return m, nil
}

// kernelPhys translates a kernel virtual address directly (the OS
// region is identity-pinned at the bottom of SRAM and bypasses the
// TLB).
func (m *refMemory) kernelPhys(va mem.VAddr) (mem.PAddr, error) {
	off := uint64(va) - synth.KernelBase
	if uint64(va) < synth.KernelBase || off >= m.osPages*m.pageBytes {
		return 0, fmt.Errorf("oracle: kernel address %#x outside pinned OS region", uint64(va))
	}
	return mem.PAddr(off), nil
}

// translate resolves a user reference to an SRAM physical address,
// performing TLB fill, page-table walk and page replacement as needed.
func (m *refMemory) translate(pid mem.PID, va mem.VAddr, write bool) (refOutcome, error) {
	if pid == mem.KernelPID {
		pa, err := m.kernelPhys(va)
		if err != nil {
			return refOutcome{}, err
		}
		if write {
			m.pt.setDirty(uint64(pa) >> m.pageShift)
		}
		return refOutcome{addr: pa}, nil
	}
	if pa, hit := m.tlb.lookup(pid, va); hit {
		if write {
			m.pt.setDirty(uint64(pa) >> m.pageShift)
		}
		return refOutcome{addr: pa}, nil
	}
	// TLB miss: walk the pinned inverted page table.
	vpn := uint64(va) >> m.pageShift
	frame, probes, found := m.pt.lookup(pid, vpn, nil)
	out := refOutcome{tlbMiss: true, ptProbes: probes}
	if !found {
		f, fault, err := m.pageFault(pid, vpn)
		if err != nil {
			return refOutcome{}, err
		}
		frame = f
		out.fault = fault
	}
	m.tlb.insert(pid, va, frame)
	if write {
		m.pt.setDirty(frame)
	}
	out.addr = mem.PAddr(frame<<m.pageShift | uint64(va)&(m.pageBytes-1))
	return out, nil
}

// pageFault brings (pid, vpn) into a frame, replacing if necessary.
func (m *refMemory) pageFault(pid mem.PID, vpn uint64) (uint64, *refFault, error) {
	fault := &refFault{}
	frame, free := m.pt.allocFree()
	if !free {
		victim, scans, ok := m.pt.selectVictim(nil)
		if !ok {
			return 0, nil, fmt.Errorf("oracle: no replaceable SRAM page (all pinned)")
		}
		vpid, vvpn, dirty, err := m.pt.unmap(victim)
		if err != nil {
			return 0, nil, err
		}
		fault.victimTLBEvicted = m.tlb.invalidate(vpid, mem.VAddr(vvpn<<m.pageShift))
		fault.victimDRAMAddr = m.seen[refSeenKey{vpid, vvpn}]
		fault.scanAddrs = scans
		fault.victimValid = true
		fault.victimDirty = dirty
		fault.victimPageAddr = mem.PAddr(victim << m.pageShift)
		fault.updateAddrs = append(fault.updateAddrs, m.pt.entryAddr(victim))
		frame = victim
	}
	if err := m.pt.mapFrame(pid, vpn, frame); err != nil {
		return 0, nil, err
	}
	fault.updateAddrs = append(fault.updateAddrs, m.pt.entryAddr(frame))

	key := refSeenKey{pid, vpn}
	dramAddr, ok := m.seen[key]
	if !ok {
		dramAddr = m.dramNext
		m.dramNext += m.pageBytes
		m.seen[key] = dramAddr
		fault.firstTouch = true
	}
	fault.pageDRAMAddr = dramAddr
	m.pt.pol.insert(frame, !fault.firstTouch)
	return frame, fault, nil
}

func (m *refMemory) pinPage(pa mem.PAddr) {
	frame := uint64(pa) >> m.pageShift
	if frame < m.frames {
		m.pt.pin(frame)
	}
}

func (m *refMemory) unpinPage(pa mem.PAddr) {
	frame := uint64(pa) >> m.pageShift
	if frame >= m.osPages && frame < m.frames {
		m.pt.unpin(frame)
	}
}

func (m *refMemory) markDirty(pa mem.PAddr) {
	frame := uint64(pa) >> m.pageShift
	if frame < m.frames {
		m.pt.setDirty(frame)
	}
}

// RAMpage is the reference model of the paper's machine (§4.5): split
// L1 in front of a software-managed SRAM main memory, with the Rambus
// channel below as a paging device. It implements Machine and is
// required to produce a report bit-identical to sim.RAMpage's for the
// same configuration and trace.
type RAMpage struct {
	cfg    sim.RAMpageConfig
	clk    refClock
	l1i    *refCache
	l1d    *refCache
	mm     *refMemory
	kernel *synth.Kernel

	rep        stats.Report
	chanFreeAt mem.Cycles // Rambus channel occupancy for async transfers
	inFlight   []refInFlightPage
}

// refInFlightPage tracks a pinned page whose DRAM transfer completes at
// ready.
type refInFlightPage struct {
	page  mem.PAddr
	ready mem.Cycles
}

// NewRAMpage builds the reference machine. The prefetch extension and
// non-default DRAM devices have no reference model and are rejected.
func NewRAMpage(cfg sim.RAMpageConfig) (*RAMpage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkParams(cfg.Params); err != nil {
		return nil, err
	}
	if cfg.PrefetchNext {
		return nil, fmt.Errorf("oracle: the next-page prefetch extension is not modeled")
	}
	if cfg.L1WBPenalty == 0 {
		cfg.L1WBPenalty = 9
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
	mm, err := newRefMemory(cfg.SRAMBytes, cfg.PageBytes, cfg.TLBEntries, cfg.TLBAssoc, cfg.Seed+6, cfg.Policy)
	if err != nil {
		return nil, err
	}
	name := "rampage"
	if cfg.SwitchOnMiss {
		name = "rampage-cs"
	}
	if pol := mm.pt.pol.name(); pol != "clock" {
		name += "+" + pol
	}
	return &RAMpage{
		cfg:    cfg,
		clk:    clk,
		l1i:    l1i,
		l1d:    l1d,
		mm:     mm,
		kernel: synth.NewKernel(cfg.Seed + 7),
		rep:    stats.Report{Name: name, Clock: cfg.Clock, BlockBytes: cfg.PageBytes},
	}, nil
}

// Report implements Machine.
func (r *RAMpage) Report() *stats.Report { return &r.rep }

// Now implements Machine.
func (r *RAMpage) Now() mem.Cycles { return r.rep.Cycles }

// AdvanceTo implements Machine.
func (r *RAMpage) AdvanceTo(t mem.Cycles) {
	if t > r.rep.Cycles {
		idle := t - r.rep.Cycles
		r.rep.IdleCycles += idle
		r.rep.Charge(stats.DRAM, idle)
	}
}

// Exec implements Machine. In switch-on-miss mode a page fault
// returns the absolute cycle at which the page arrives; the reference
// did not execute and must be retried after that time.
func (r *RAMpage) Exec(ref mem.Ref) (mem.Cycles, error) {
	return r.execOne(ref, sim.ClassBench)
}

// ExecTrace implements Machine. Operating-system references are
// pinned in SRAM (§4.6) and can never fault.
func (r *RAMpage) ExecTrace(refs []mem.Ref, class sim.RefClass) error {
	for _, ref := range refs {
		if block, err := r.execOne(ref, class); err != nil {
			return err
		} else if block != 0 {
			return fmt.Errorf("oracle: pinned OS reference faulted")
		}
	}
	return nil
}

func (r *RAMpage) countRef(class sim.RefClass) {
	switch class {
	case sim.ClassBench:
		r.rep.BenchRefs++
	case sim.ClassTLB:
		r.rep.OSTLBRefs++
	case sim.ClassFault:
		r.rep.OSFaultRefs++
	case sim.ClassSwitch:
		r.rep.OSSwitchRefs++
	}
}

func (r *RAMpage) execOne(ref mem.Ref, class sim.RefClass) (mem.Cycles, error) {
	r.unpinCompleted()
	out, err := r.mm.translate(ref.PID, ref.Addr, ref.Kind == mem.Store)
	if err != nil {
		return 0, err
	}
	if out.tlbMiss {
		r.rep.TLBMisses++
		// The TLB-miss handler walks the pinned inverted page table;
		// its references hit SRAM by construction (§2.3).
		trc := r.kernel.AppendTLBMiss(nil, out.ptProbes)
		start := r.rep.Cycles
		if err := r.ExecTrace(trc, sim.ClassTLB); err != nil {
			return 0, err
		}
		r.rep.TLBHandlerCycles += r.rep.Cycles - start
	} else if ref.PID != mem.KernelPID {
		r.rep.TLBHits++
	}
	if out.fault != nil {
		block, err := r.handleFault(out.fault)
		if err != nil {
			return 0, err
		}
		if block != 0 {
			// Lock the frame for the duration of its transfer: the clock
			// hand must not steal the page before the blocked process
			// resumes.
			page := out.addr &^ mem.PAddr(r.cfg.PageBytes-1)
			r.mm.pinPage(page)
			r.inFlight = append(r.inFlight, refInFlightPage{page: page, ready: block})
			return block, nil
		}
	}
	r.countRef(class)
	r.accessL1(ref.Kind, out.addr)
	return 0, nil
}

// unpinCompleted releases in-flight page locks whose transfers have
// finished by the current simulated time.
func (r *RAMpage) unpinCompleted() {
	if len(r.inFlight) == 0 {
		return
	}
	now := r.rep.Cycles
	kept := r.inFlight[:0]
	for _, p := range r.inFlight {
		if p.ready <= now {
			r.mm.unpinPage(p.page)
		} else {
			kept = append(kept, p)
		}
	}
	r.inFlight = kept
}

// handleFault runs the page-fault handler trace, purges the victim page
// from L1, and either stalls on the Rambus transfers or (switch-on-
// miss) schedules them on the channel and returns the completion time.
func (r *RAMpage) handleFault(f *refFault) (mem.Cycles, error) {
	r.rep.PageFaults++
	trc := r.kernel.AppendPageFault(nil, f.scanAddrs, f.updateAddrs)
	start := r.rep.Cycles
	if err := r.ExecTrace(trc, sim.ClassFault); err != nil {
		return 0, err
	}
	r.rep.FaultHandlerCycles += r.rep.Cycles - start
	total := r.pageTransferCycles(f)
	if r.cfg.SwitchOnMiss {
		start := r.rep.Cycles
		if r.chanFreeAt > start {
			start = r.chanFreeAt
		}
		ready := start + total
		r.chanFreeAt = ready
		return ready, nil
	}
	r.rep.Charge(stats.DRAM, total)
	return 0, nil
}

// pageTransferCycles performs the victim bookkeeping for a fault and
// returns the total Rambus time: the victim write-back (when needed)
// followed by the page fetch, serialized on the unpipelined channel.
func (r *RAMpage) pageTransferCycles(f *refFault) mem.Cycles {
	var total mem.Cycles
	if r.applyVictim(f) {
		total += r.clk.transferCycles(r.cfg.PageBytes)
		r.dramTransfer()
	}
	fetch := r.clk.transferCycles(r.cfg.PageBytes)
	r.dramTransfer()
	return total + fetch
}

// dramTransfer accounts one real page-sized transfer on the Rambus
// channel; the caller times it.
func (r *RAMpage) dramTransfer() {
	r.rep.DRAMTransfers++
	r.rep.DRAMBytes += r.cfg.PageBytes
}

// applyVictim performs the replacement bookkeeping for a fault: L1
// inclusion purge of the departing page (§2.3) and the write-back
// decision.
func (r *RAMpage) applyVictim(f *refFault) bool {
	r.rep.ClockScans += uint64(len(f.scanAddrs))
	if f.victimTLBEvicted {
		r.rep.TLBEvictions++
	}
	writeback := false
	if f.victimValid {
		// Inclusion: the replaced page's blocks leave L1 (§2.3). Dirty
		// blocks merge into the departing page, dirtying it.
		dirty := r.purgeL1(f.victimPageAddr, r.cfg.PageBytes)
		writeback = f.victimDirty || dirty > 0
	}
	if writeback {
		r.rep.Writebacks++
	}
	return writeback
}

// purgeL1 invalidates [addr, addr+size) from both L1 sides, charging
// one cycle per present block and the write-back penalty for dirty data
// blocks.
func (r *RAMpage) purgeL1(addr mem.PAddr, size uint64) (dirtyBlocks int) {
	r.l1i.invalidateRange(addr, size, func(block mem.PAddr, dirty bool) {
		r.rep.Charge(stats.L1I, 1)
	})
	r.l1d.invalidateRange(addr, size, func(block mem.PAddr, dirty bool) {
		r.rep.Charge(stats.L1D, 1)
		if dirty {
			r.rep.Charge(stats.L2, r.cfg.L1WBPenalty)
			dirtyBlocks++
		}
	})
	return dirtyBlocks
}

// l1side returns the L1 cache a reference kind uses.
func (r *RAMpage) l1side(kind mem.RefKind) *refCache {
	if kind.IsData() {
		return r.l1d
	}
	return r.l1i
}

// accessL1 runs the reference through the split L1. After translation
// the data is resident in the SRAM main memory — full associativity
// with no tag check (§2.2) — so an L1 miss costs exactly the SRAM
// access penalty and never goes deeper.
func (r *RAMpage) accessL1(kind mem.RefKind, pa mem.PAddr) {
	if kind == mem.IFetch {
		r.rep.Charge(stats.L1I, 1)
	}
	res := r.l1side(kind).access(pa, kind == mem.Store)
	if res.hit {
		return
	}
	if kind == mem.IFetch {
		r.rep.L1IMisses++
	} else {
		r.rep.L1DMisses++
	}
	r.rep.Charge(stats.L2, r.cfg.L1MissPenalty)
	if res.evictedDirty {
		// Write back to SRAM: no tag update (§4.3). The receiving page
		// becomes dirty.
		r.rep.Charge(stats.L2, r.cfg.L1WBPenalty)
		r.mm.markDirty(res.writebackAddr)
	}
}

// StateSummary describes the machine's internal state for divergence
// reports.
func (r *RAMpage) StateSummary() string {
	l1iv, l1id := r.l1i.countValid()
	l1dv, l1dd := r.l1d.countValid()
	ptv, ptp := r.mm.pt.countValid()
	return fmt.Sprintf("l1i %d lines (%d dirty), l1d %d lines (%d dirty), tlb %d entries, pt %d mapped (%d pinned), %s, %d in flight, chan free at %d",
		l1iv, l1id, l1dv, l1dd, r.mm.tlb.countValid(), ptv, ptp, r.mm.pt.pol.stateSummary(), len(r.inFlight), r.chanFreeAt)
}
