package sim

import (
	"rampage/internal/core"
	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/policy"
	"rampage/internal/stats"
	"rampage/internal/synth"
)

// RAMpageConfig describes a RAMpage machine (§4.5): the lowest SRAM
// level is a paged main memory, DRAM is a paging device.
type RAMpageConfig struct {
	Params
	// SRAMBytes is the SRAM main memory capacity. Per §4.5 it is the
	// comparable cache plus its tag budget; harness.SRAMSize computes
	// it. PageBytes is the swept SRAM page size.
	SRAMBytes uint64
	PageBytes uint64
	// SwitchOnMiss enables context switches on page faults (§4.6,
	// Table 4): on a fault the machine starts the DRAM transfer and
	// reports a blocking time instead of stalling.
	SwitchOnMiss bool
	// PrefetchNext enables sequential next-page prefetch (the §3.2
	// extension): every demand fault also starts an asynchronous
	// transfer of the following virtual page. A demand access that
	// arrives before its prefetched page has landed waits only for the
	// remainder of the transfer.
	PrefetchNext bool
	// Policy selects the SRAM page-replacement policy ("" means clock,
	// the paper's §4.5 algorithm). See package policy for the
	// vocabulary. Non-clock machines report as "rampage+<policy>".
	Policy string
}

// RAMpage is the paper's machine: split L1 in front of a software-
// managed SRAM main memory, with the Rambus channel below.
type RAMpage struct {
	frontEnd
	cfg    RAMpageConfig
	mm     *core.Memory // installed by setMemory only
	kernel *synth.Kernel

	chanFreeAt mem.Cycles // Rambus channel occupancy for async transfers
	trcBuf     []mem.Ref
	inFlight   []inFlightPage           // pages pinned while their transfer runs
	pending    map[mem.PAddr]mem.Cycles // in-flight prefetched pages: base -> arrival
}

// inFlightPage tracks a pinned page whose DRAM transfer completes at
// ready.
type inFlightPage struct {
	page  mem.PAddr
	ready mem.Cycles
}

// NewRAMpage builds the machine. The write-back penalty defaults to 9
// cycles (§4.3: no L2 tag to update) unless explicitly configured.
func NewRAMpage(cfg RAMpageConfig) (*RAMpage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.L1WBPenalty == 0 {
		cfg.L1WBPenalty = 9
	}
	fe, err := newFrontEnd(cfg.Params)
	if err != nil {
		return nil, err
	}
	mm, err := core.New(core.Config{
		TotalBytes: cfg.SRAMBytes,
		PageBytes:  cfg.PageBytes,
		TLBEntries: cfg.TLBEntries,
		TLBAssoc:   cfg.TLBAssoc,
		Seed:       cfg.Seed + 6,
		Policy:     cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	name := "rampage"
	if cfg.SwitchOnMiss {
		name = "rampage-cs"
	}
	if pol := policy.Normalize(cfg.Policy); pol != "" {
		name += "+" + pol
	}
	r := &RAMpage{
		frontEnd: fe,
		cfg:      cfg,
		kernel:   synth.NewKernel(cfg.Seed + 7),
		pending:  make(map[mem.PAddr]mem.Cycles),
	}
	r.rep = stats.Report{Name: name, Clock: cfg.Clock, BlockBytes: cfg.PageBytes}
	r.setMemory(mm)
	return r, nil
}

// setMemory installs mm as the SRAM main memory, recycling the one it
// replaces: it rebuilds the fused path's views of mm's TLB, page table
// and translation counter and threads the observer through. It is the
// only place r.mm changes.
func (r *RAMpage) setMemory(mm *core.Memory) {
	if r.mm != nil {
		r.mm.Recycle() // the old memory's page-table slabs return to the arena
	}
	r.mm = mm
	mm.SetObserver(r.obs)
	h := mm.Hot()
	r.tlbHot, r.ptFlags, r.ptShift, r.translations = h.TLB, h.PTFlags, h.PageShift, &h.Stats.Translations
	r.kernelBytes = mm.OSPages() * mm.PageBytes()
}

// Memory exposes the SRAM main memory manager (for inspection).
func (r *RAMpage) Memory() *core.Memory { return r.mm }

// SetObserver implements Machine, threading the observer through the
// SRAM main memory (TLB + page table) and the DRAM device.
func (r *RAMpage) SetObserver(obs metrics.Observer) {
	r.obs = obs
	r.mm.SetObserver(obs)
	observeDRAM(r.cfg.DRAM, obs)
}

// Exec implements Machine. In switch-on-miss mode a page fault returns
// the absolute cycle at which the page arrives; the reference did not
// execute and must be retried after that time.
func (r *RAMpage) Exec(ref mem.Ref) (mem.Cycles, error) {
	return r.execOne(ref, ClassBench)
}

// ExecBatchColumnar implements Machine with the shared batch loop
// (fastpath.go): fused runs stop at the deadline and at the next
// in-flight page arrival, where the per-reference path would unpin the
// page, so every pin, in-flight entry and checkpoint byte changes at
// the reference it changes at under repeated Exec calls. While a
// prefetched page is pending every reference runs execOne.
func (r *RAMpage) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	return r.execBatch(r, pid, kinds, addrs, until)
}

// ExecTrace implements Machine with the shared trace loop. Operating-
// system references are pinned in SRAM (§4.6) and can never fault.
func (r *RAMpage) ExecTrace(refs []mem.Ref, class RefClass) error {
	return r.execTrace(r, refs, class)
}

// execOne implements fusedMachine: the per-reference path.
func (r *RAMpage) execOne(ref mem.Ref, class RefClass) (mem.Cycles, error) {
	r.unpinCompleted()
	out, err := r.mm.Translate(ref.PID, ref.Addr, ref.Kind == mem.Store)
	if err != nil {
		return 0, err
	}
	if out.TLBMiss {
		r.rep.TLBMisses++
		// The TLB-miss handler walks the pinned inverted page table;
		// its references hit SRAM by construction (§2.3).
		r.trcBuf = r.kernel.AppendTLBMiss(r.trcBuf[:0], out.PTProbes)
		start := r.rep.Cycles
		if err := r.ExecTrace(r.trcBuf, ClassTLB); err != nil {
			return 0, err
		}
		r.rep.TLBHandlerCycles += r.rep.Cycles - start
		if r.obs != nil {
			r.obs.Observe(metrics.EvTLBHandlerCycles, uint64(r.rep.Cycles-start))
		}
	} else if ref.PID != mem.KernelPID {
		r.rep.TLBHits++
	}
	if out.PrefetchHit {
		r.rep.PrefetchHits++
		// Keep the pipeline primed: a hit on a prefetched page means
		// the stream is sequential, so fetch the next page too.
		if r.cfg.PrefetchNext && ref.PID != mem.KernelPID {
			if err := r.prefetchNext(ref); err != nil {
				return 0, err
			}
		}
	}
	if out.Fault != nil {
		block, err := r.handleFault(out.Fault)
		if err != nil {
			return 0, err
		}
		if r.cfg.PrefetchNext && ref.PID != mem.KernelPID {
			if err := r.prefetchNext(ref); err != nil {
				return 0, err
			}
		}
		if block != 0 {
			// Lock the frame for the duration of its transfer, as an
			// OS locks frames during I/O: the clock hand must not
			// steal the page before the blocked process resumes.
			page := out.Addr &^ mem.PAddr(r.cfg.PageBytes-1)
			r.mm.PinPage(page)
			r.inFlight = append(r.inFlight, inFlightPage{page: page, ready: block})
			return block, nil
		}
	}
	// A demand access to a page whose prefetch is still in flight
	// waits only for the remainder of the transfer.
	if len(r.pending) > 0 {
		page := out.Addr &^ mem.PAddr(r.cfg.PageBytes-1)
		if ready, ok := r.pending[page]; ok {
			if ready > r.rep.Cycles {
				r.rep.PrefetchStalls++
				if r.cfg.SwitchOnMiss && class == ClassBench {
					return ready, nil // block; the reference is retried
				}
				r.rep.Charge(stats.DRAM, ready-r.rep.Cycles)
			}
			delete(r.pending, page)
		}
	}
	*classRefs(&r.rep, class)++
	r.accessL1(ref.Kind, out.Addr)
	return 0, nil
}

// prefetchNext starts an asynchronous fetch of the virtual page after
// the one that just faulted (§3.2: sequential one-ahead prefetch). The
// handler work is charged like a page fault; the transfer queues on
// the Rambus channel behind the demand fetch and never stalls the CPU
// directly.
func (r *RAMpage) prefetchNext(ref mem.Ref) error {
	vpn := uint64(ref.Addr)/r.cfg.PageBytes + 1
	f, pa, ok, err := r.mm.Prefetch(ref.PID, vpn)
	if err != nil || !ok {
		return err
	}
	r.rep.Prefetches++
	r.trcBuf = r.kernel.AppendPageFault(r.trcBuf[:0], f.ScanAddrs, f.UpdateAddrs)
	hstart := r.rep.Cycles
	if err := r.ExecTrace(r.trcBuf, ClassFault); err != nil {
		return err
	}
	r.rep.FaultHandlerCycles += r.rep.Cycles - hstart
	if r.obs != nil {
		r.obs.Observe(metrics.EvFaultHandlerCycles, uint64(r.rep.Cycles-hstart))
	}
	cost := r.pageTransferCycles(f)
	start := r.rep.Cycles
	if r.chanFreeAt > start {
		start = r.chanFreeAt
	}
	ready := start + cost
	r.chanFreeAt = ready
	r.mm.PinPage(pa)
	r.inFlight = append(r.inFlight, inFlightPage{page: pa, ready: ready})
	r.pending[pa] = ready
	return nil
}

// arrivals implements fusedMachine: it unpins the pages that have
// landed and returns the earliest arrival still in flight, or 0.
func (r *RAMpage) arrivals() mem.Cycles {
	r.unpinCompleted()
	var t mem.Cycles
	for _, p := range r.inFlight {
		t = earlier(t, p.ready)
	}
	return t
}

// prefetchPending implements fusedMachine.
func (r *RAMpage) prefetchPending() bool { return len(r.pending) != 0 }

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
			r.mm.UnpinPage(p.page)
			delete(r.pending, p.page)
		} else {
			kept = append(kept, p)
		}
	}
	r.inFlight = kept
}

// handleFault runs the page-fault handler trace, purges the victim
// page from L1, and either stalls on the Rambus transfers or (switch-
// on-miss) schedules them on the channel and returns the completion
// time.
func (r *RAMpage) handleFault(f *core.Fault) (mem.Cycles, error) {
	r.rep.PageFaults++
	if r.obs != nil {
		r.obs.Count(metrics.EvPageFault, 1)
	}
	r.trcBuf = r.kernel.AppendPageFault(r.trcBuf[:0], f.ScanAddrs, f.UpdateAddrs)
	start := r.rep.Cycles
	if err := r.ExecTrace(r.trcBuf, ClassFault); err != nil {
		return 0, err
	}
	r.rep.FaultHandlerCycles += r.rep.Cycles - start
	if r.obs != nil {
		r.obs.Observe(metrics.EvFaultHandlerCycles, uint64(r.rep.Cycles-start))
	}
	total := r.pageTransferCycles(f)
	if r.cfg.SwitchOnMiss {
		start := r.rep.Cycles
		if r.chanFreeAt > start {
			if r.cfg.PipelinedDRAM {
				// The new reference's startup overlaps the in-flight
				// transfer; only its data phase queues behind it.
				startup := r.cfg.transferCycles(r.cfg.PageBytes) - r.cfg.dataCycles(r.cfg.PageBytes)
				if r.rep.Cycles+startup > r.chanFreeAt {
					start = r.rep.Cycles + startup
				} else {
					start = r.chanFreeAt
				}
				total -= startup
			} else {
				start = r.chanFreeAt
			}
		}
		ready := start + total
		r.chanFreeAt = ready
		return ready, nil
	}
	r.rep.Charge(stats.DRAM, total)
	return 0, nil
}

// pageTransferCycles performs the victim bookkeeping for a fault (or
// prefetch) and returns the total Rambus time: the victim write-back
// (when needed) followed by the page fetch, serialized, or startup-
// overlapped on a pipelined channel (§6.3 ablation). With an
// address-sensitive DRAM model the write-back is timed first so the
// fetch sees the row-buffer state it leaves behind.
func (r *RAMpage) pageTransferCycles(f *core.Fault) mem.Cycles {
	var total mem.Cycles
	writeback := r.applyVictim(f)
	if writeback {
		total += r.cfg.transferCyclesAt(f.VictimDRAMAddr, r.cfg.PageBytes)
		r.dramTransfer()
	}
	fetch := r.cfg.transferCyclesAt(f.PageDRAMAddr, r.cfg.PageBytes)
	r.dramTransfer()
	if writeback && r.cfg.PipelinedDRAM {
		// The fetch's startup overlaps the write-back's data phase.
		if s := r.cfg.startupCycles(); fetch > s {
			fetch -= s
		}
	}
	return total + fetch
}

// dramTransfer accounts one real page-sized transfer on the Rambus
// channel (fetch or victim write-back); the caller times it.
func (r *RAMpage) dramTransfer() {
	r.rep.DRAMTransfers++
	r.rep.DRAMBytes += r.cfg.PageBytes
	if r.obs != nil {
		r.obs.Observe(metrics.EvDRAMTransfer, r.cfg.PageBytes)
	}
}

// applyVictim performs the replacement bookkeeping for a fault or
// prefetch: L1 inclusion purge of the departing page (§2.3) and the
// write-back decision. It reports whether the victim must be written
// to DRAM before its frame is reused.
func (r *RAMpage) applyVictim(f *core.Fault) bool {
	r.rep.ClockScans += uint64(len(f.ScanAddrs))
	if f.VictimTLBEvicted {
		r.rep.TLBEvictions++
	}
	writeback := false
	if f.VictimValid {
		// Inclusion: the replaced page's blocks leave L1 (§2.3). Dirty
		// blocks merge into the departing page, dirtying it.
		dirty := r.l1.purgeRange(f.VictimPageAddr, r.cfg.PageBytes, &r.rep, r.cfg.L1WBPenalty)
		writeback = f.VictimDirty || dirty > 0
		if f.VictimWasPrefetched {
			r.rep.PrefetchWasted++
		}
	}
	if writeback {
		r.rep.Writebacks++
	}
	return writeback
}

// accessL1 runs a per-reference path's reference through the split
// L1. After translation the data is guaranteed resident in the SRAM
// main memory — full associativity with no tag check (§2.2) — so an L1
// miss costs exactly the SRAM access penalty and never goes deeper.
func (r *RAMpage) accessL1(kind mem.RefKind, pa mem.PAddr) {
	if r.l1.side(kind).Hit(pa, kind == mem.Store) {
		r.chargeFetch(kind)
		return
	}
	r.missL1(kind, pa)
}

// missL1 implements fusedMachine: the fetch charge, then the fill and
// the SRAM access penalty, plus the write-back of a dirty victim.
func (r *RAMpage) missL1(kind mem.RefKind, pa mem.PAddr) {
	r.chargeFetch(kind)
	res := r.l1.side(kind).Access(pa, kind == mem.Store)
	if kind == mem.IFetch {
		r.rep.L1IMisses++
	} else {
		r.rep.L1DMisses++
	}
	r.rep.Charge(stats.L2, r.cfg.L1MissPenalty)
	if res.EvictedDirty {
		// Write back to SRAM: 9 cycles, no tag update (§4.3). The
		// receiving page becomes dirty.
		r.rep.Charge(stats.L2, r.cfg.L1WBPenalty)
		r.mm.MarkDirty(res.WritebackAddr)
	}
}
