package sim

import (
	"fmt"

	"rampage/internal/cache"
	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/pagetable"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/tlb"
)

// dramPageBytes is the DRAM page size, held constant while the SRAM
// page / L2 block size is swept ("the DRAM page size is held constant,
// while the SRAM page size is varied", §2.4).
const dramPageBytes = 4096

// BaselineConfig describes a conventional-cache machine: the §4.4
// baseline when L2Assoc == 1 and the §4.7 comparison when L2Assoc == 2
// with random replacement.
type BaselineConfig struct {
	Params
	// L2Bytes is the unified L2 capacity (4 MB in the paper); L2Block
	// the swept block size (128 B – 4 KB); L2Assoc the associativity.
	L2Bytes uint64
	L2Block uint64
	L2Assoc int
	// L2Policy selects replacement for associative L2s (the paper uses
	// random, §4.7).
	L2Policy cache.Policy
	// DRAMBytes bounds the "infinite" DRAM: it must simply exceed the
	// workload footprint so no page ever leaves DRAM (§4.3). Default
	// 64 MB.
	DRAMBytes uint64
	// VictimEntries, when non-zero, attaches a fully-associative
	// victim cache of that many blocks to L2 — the §3.2 hardware
	// alternative, for ablation.
	VictimEntries int
}

// Baseline is the conventional hierarchy: split L1, unified L2, TLB
// translating to DRAM physical addresses, inverted page table in DRAM.
type Baseline struct {
	frontEnd
	cfg    BaselineConfig
	l2     *cache.Cache
	victim *cache.VictimCache
	tlb    *tlb.TLB
	pt     *pagetable.Inverted
	kernel *synth.Kernel

	probeBuf []uint64
	trcBuf   []mem.Ref
	updBuf   []uint64
}

// NewBaseline builds the machine.
func NewBaseline(cfg BaselineConfig) (*Baseline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DRAMBytes == 0 {
		cfg.DRAMBytes = 64 << 20
	}
	if cfg.L1WBPenalty == 0 {
		cfg.L1WBPenalty = 12
	}
	fe, err := newFrontEnd(cfg.Params)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cache.Config{
		Name:       "L2",
		SizeBytes:  cfg.L2Bytes,
		BlockBytes: cfg.L2Block,
		Assoc:      cfg.L2Assoc,
		Policy:     cfg.L2Policy,
		Seed:       cfg.Seed + 3,
	})
	if err != nil {
		return nil, err
	}
	tb, err := tlb.New(tlb.Config{
		Entries:   cfg.TLBEntries,
		Assoc:     cfg.TLBAssoc,
		PageBytes: dramPageBytes,
		Seed:      cfg.Seed + 4,
	})
	if err != nil {
		return nil, err
	}
	pt, err := pagetable.New(pagetable.Config{
		Frames:    cfg.DRAMBytes / dramPageBytes,
		PageBytes: dramPageBytes,
		TableBase: synth.KernelBase + synth.KernelFixedBytes,
		// Random page placement, as on a long-running OS: this is what
		// exposes the direct-mapped L2 to conflict misses.
		Scramble:     true,
		ScrambleSeed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	b := &Baseline{
		frontEnd: fe,
		cfg:      cfg,
		l2:       l2,
		tlb:      tb,
		pt:       pt,
		kernel:   synth.NewKernel(cfg.Seed + 5),
	}
	if cfg.VictimEntries > 0 {
		v, err := cache.NewVictim(l2, cfg.VictimEntries)
		if err != nil {
			return nil, err
		}
		b.victim = v
	}
	// Reserve the kernel region (fixed span + the page table itself)
	// at the bottom of DRAM, identity-mapped from the kernel virtual
	// range like a MIPS kseg0 segment.
	b.kernelBytes = synth.KernelFixedBytes + pt.TableBytes()
	kpages := (b.kernelBytes + dramPageBytes - 1) / dramPageBytes
	for i := uint64(0); i < kpages; i++ {
		f, ok := pt.AllocFree()
		if !ok || f != i {
			return nil, fmt.Errorf("sim: kernel DRAM reservation failed at page %d", i)
		}
		if err := pt.Map(mem.KernelPID, (uint64(synth.KernelBase)>>12)+i, f); err != nil {
			return nil, err
		}
		pt.Pin(f)
	}
	name := "baseline-dm"
	if cfg.L2Assoc > 1 {
		name = fmt.Sprintf("l2-%dway", cfg.L2Assoc)
	}
	if cfg.VictimEntries > 0 {
		name += "+victim"
	}
	b.rep = stats.Report{Name: name, Clock: cfg.Clock, BlockBytes: cfg.L2Block}
	b.tlbHot = tb.Hot()
	return b, nil
}

// SetObserver implements Machine, threading the observer through the
// TLB, the page table and (when it has probes) the DRAM device.
func (b *Baseline) SetObserver(obs metrics.Observer) {
	b.obs = obs
	b.tlb.SetObserver(obs)
	b.pt.SetObserver(obs)
	observeDRAM(b.cfg.DRAM, obs)
}

// Exec implements Machine. The baseline never blocks.
func (b *Baseline) Exec(ref mem.Ref) (mem.Cycles, error) {
	return b.execOne(ref, ClassBench)
}

// ExecBatchColumnar implements Machine with the shared batch loop
// (fastpath.go). The baseline never blocks, so consumed is len(kinds)
// unless an error occurs or the deadline stops the call.
func (b *Baseline) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	return b.execBatch(b, pid, kinds, addrs, until)
}

// ExecTrace implements Machine with the shared trace loop.
func (b *Baseline) ExecTrace(refs []mem.Ref, class RefClass) error {
	return b.execTrace(b, refs, class)
}

// execOne implements fusedMachine: the per-reference path. The baseline
// never blocks.
func (b *Baseline) execOne(ref mem.Ref, class RefClass) (mem.Cycles, error) {
	pa, err := b.translate(ref)
	if err != nil {
		return 0, err
	}
	*classRefs(&b.rep, class)++
	b.accessL1(ref.Kind, pa)
	return 0, nil
}

// arrivals implements fusedMachine: the baseline has no page in flight.
func (b *Baseline) arrivals() mem.Cycles { return 0 }

// prefetchPending implements fusedMachine: the baseline never prefetches.
func (b *Baseline) prefetchPending() bool { return false }

// translate resolves a reference to a DRAM physical address through
// the TLB, running the TLB-miss handler trace when needed.
func (b *Baseline) translate(ref mem.Ref) (mem.PAddr, error) {
	if ref.PID == mem.KernelPID {
		off := uint64(ref.Addr) - synth.KernelBase
		if uint64(ref.Addr) < synth.KernelBase || off >= b.kernelBytes {
			return 0, fmt.Errorf("sim: kernel address %#x outside reserved region", uint64(ref.Addr))
		}
		return mem.PAddr(off), nil
	}
	if pa, hit := b.tlb.Lookup(ref.PID, ref.Addr); hit {
		b.rep.TLBHits++
		return pa, nil
	}
	b.rep.TLBMisses++
	vpn := uint64(ref.Addr) >> 12
	b.probeBuf = b.probeBuf[:0]
	frame, probes, found := b.pt.LookupAppend(ref.PID, vpn, b.probeBuf)
	b.probeBuf = probes
	b.updBuf = b.updBuf[:0]
	if !found {
		// First touch: infinite DRAM hands out a fresh frame; the
		// handler updates the table (a compulsory, disk-free "fault").
		f, ok := b.pt.AllocFree()
		if !ok {
			return 0, fmt.Errorf("sim: DRAM exhausted; raise DRAMBytes above the workload footprint")
		}
		if err := b.pt.Map(ref.PID, vpn, f); err != nil {
			return 0, err
		}
		frame = f
		b.updBuf = append(b.updBuf, b.pt.EntryAddr(f))
	}
	b.tlb.Insert(ref.PID, ref.Addr, frame)
	// Interleave the page-lookup software trace (§4.3).
	b.trcBuf = b.trcBuf[:0]
	b.trcBuf = b.kernel.AppendTLBMiss(b.trcBuf, probes)
	start := b.rep.Cycles
	if err := b.ExecTrace(b.trcBuf, ClassTLB); err != nil {
		return 0, err
	}
	b.rep.TLBHandlerCycles += b.rep.Cycles - start
	if b.obs != nil {
		b.obs.Observe(metrics.EvTLBHandlerCycles, uint64(b.rep.Cycles-start))
	}
	if len(b.updBuf) > 0 {
		b.trcBuf = b.kernel.AppendPageFault(b.trcBuf[:0], nil, b.updBuf)
		start = b.rep.Cycles
		if err := b.ExecTrace(b.trcBuf, ClassFault); err != nil {
			return 0, err
		}
		b.rep.FaultHandlerCycles += b.rep.Cycles - start
		if b.obs != nil {
			b.obs.Observe(metrics.EvFaultHandlerCycles, uint64(b.rep.Cycles-start))
		}
	}
	off := uint64(ref.Addr) & (dramPageBytes - 1)
	return mem.PAddr(frame<<12 | off), nil
}

// accessL1 runs a per-reference path's reference through the split L1
// and, on a miss, the L2 and DRAM levels, charging time per §4.3–4.4.
func (b *Baseline) accessL1(kind mem.RefKind, pa mem.PAddr) {
	if b.l1.side(kind).Hit(pa, kind == mem.Store) {
		b.chargeFetch(kind)
		return
	}
	b.missL1(kind, pa)
}

// missL1 implements fusedMachine: the fetch charge, then the fill
// (write-allocate), miss charge, the L2 access, and the dirty-eviction
// write-back. The fill runs before the L2 access, exactly as the
// combined Access path did, so inclusion purges triggered by L2
// evictions see the same L1 state.
func (b *Baseline) missL1(kind mem.RefKind, pa mem.PAddr) {
	b.chargeFetch(kind)
	res := b.l1.side(kind).Access(pa, kind == mem.Store)
	if kind == mem.IFetch {
		b.rep.L1IMisses++
	} else {
		b.rep.L1DMisses++
	}
	b.rep.Charge(stats.L2, b.cfg.L1MissPenalty)
	b.accessL2(pa)
	if res.EvictedDirty {
		// Write the dirty L1 block back to L2 (write-back, §4.3).
		b.rep.Charge(stats.L2, b.cfg.L1WBPenalty)
		b.writebackToL2(res.WritebackAddr)
	}
}

// accessL2 looks up the block containing pa, fetching it from DRAM on
// a miss and maintaining inclusion with L1.
func (b *Baseline) accessL2(pa mem.PAddr) {
	var res cache.Result
	if b.victim != nil {
		vres := b.victim.Access(pa, false)
		if vres.VictimHit {
			// Recovered from the victim buffer: no DRAM traffic.
			b.handleL2Eviction(vres.Result)
			return
		}
		res = vres.Result
	} else {
		res = b.l2.Access(pa, false)
	}
	if res.Hit {
		return
	}
	b.rep.L2Misses++
	b.dramTransfer(uint64(pa) &^ (b.cfg.L2Block - 1))
	b.handleL2Eviction(res)
}

// dramTransfer charges one real L2-block transfer on the Rambus
// channel and accounts it (fills and write-backs alike).
func (b *Baseline) dramTransfer(addr uint64) {
	b.rep.DRAMTransfers++
	b.rep.DRAMBytes += b.cfg.L2Block
	if b.obs != nil {
		b.obs.Observe(metrics.EvDRAMTransfer, b.cfg.L2Block)
	}
	b.rep.Charge(stats.DRAM, b.cfg.transferCyclesAt(addr, b.cfg.L2Block))
}

// handleL2Eviction maintains inclusion (purging the departing block
// from L1) and charges the DRAM write-back for dirty departures.
func (b *Baseline) handleL2Eviction(res cache.Result) {
	if !res.Evicted {
		return
	}
	dirtyL1 := b.l1.purgeRange(res.EvictedAddr, b.cfg.L2Block, &b.rep, b.cfg.L1WBPenalty)
	if res.EvictedDirty || dirtyL1 > 0 {
		b.rep.Writebacks++
		b.dramTransfer(uint64(res.EvictedAddr))
	}
}

// writebackToL2 lands a dirty L1 block in L2. Under inclusion the
// block's parent is present; if it is not (it was displaced by the
// very fill that evicted this block), the write allocates it again.
func (b *Baseline) writebackToL2(addr mem.PAddr) {
	var res cache.Result
	if b.victim != nil {
		vres := b.victim.Access(addr, true)
		if vres.VictimHit {
			b.handleL2Eviction(vres.Result)
			return
		}
		res = vres.Result
	} else {
		res = b.l2.Access(addr, true)
	}
	if res.Hit {
		return
	}
	b.rep.L2Misses++
	b.dramTransfer(uint64(addr) &^ (b.cfg.L2Block - 1))
	b.handleL2Eviction(res)
}
