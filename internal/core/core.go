// Package core implements the RAMpage SRAM main memory — the paper's
// primary contribution (§2). The lowest SRAM level of the hierarchy is
// managed not as a cache but as a paged, byte-addressed physical main
// memory:
//
//   - allocation and replacement are per page (any virtual page may
//     occupy any frame: full associativity with no hit-time penalty,
//     because a hit needs only a TLB translation, not a tag check);
//   - translation uses a pinned inverted page table (§2.2), so a TLB
//     miss that hits in SRAM never references DRAM;
//   - DRAM below is a paging device (§2.4): on an SRAM page fault a
//     whole page moves over the Rambus channel;
//   - replacement is the clock algorithm (§4.5), with the operating
//     system's own code, data and page table pinned (§4.6);
//   - when a page is replaced, its TLB entry is flushed and any of its
//     blocks in L1 must be purged to keep the hierarchy consistent
//     (§2.3) — the Memory reports the replaced range so the simulator
//     can do that.
//
// Memory is a *functional* model plus event descriptions; all timing
// (handler execution, Rambus transfers) is charged by package sim,
// which replays the handler reference traces this package's outcomes
// describe.
package core

import (
	"fmt"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/pagetable"
	"rampage/internal/synth"
	"rampage/internal/tlb"
	"rampage/internal/xrand"
)

// Config describes a RAMpage SRAM main memory.
type Config struct {
	// TotalBytes is the SRAM capacity. Per §4.5 this is the comparable
	// cache's size plus its tag budget ("128 Kbytes larger, since it
	// does not need tags"); use TagBonus to compute it.
	TotalBytes uint64
	// PageBytes is the SRAM page size (the swept parameter: 128 B–4 KB).
	PageBytes uint64
	// TLBEntries and TLBAssoc configure the TLB (§4.3: 64 entries,
	// fully associative => TLBAssoc 0).
	TLBEntries int
	TLBAssoc   int
	// Seed drives the TLB's random replacement and seeds the
	// replacement policy's RNG (when the policy uses one).
	Seed uint64
	// Policy names the page-replacement policy ("" means clock, the
	// paper's §4.5 algorithm). See package policy for the vocabulary.
	Policy string
}

// TagBonus returns the tag capacity a conventional cache of cacheBytes
// with the given block size would need: 4 bytes (32 bits of tag plus
// state) per line. At 4 MB and 128 B blocks this is the paper's
// 128 KB; it scales down with larger blocks exactly as §4.5 requires.
func TagBonus(cacheBytes, blockBytes uint64) uint64 {
	return cacheBytes / blockBytes * 4
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PageBytes == 0 || !mem.IsPow2(c.PageBytes) {
		return fmt.Errorf("core: page size %d is not a power of two", c.PageBytes)
	}
	if c.TotalBytes == 0 || c.TotalBytes%c.PageBytes != 0 {
		return fmt.Errorf("core: size %d is not a multiple of page size %d", c.TotalBytes, c.PageBytes)
	}
	if c.TLBEntries == 0 {
		return fmt.Errorf("core: TLB entry count must be positive")
	}
	return nil
}

// Fault describes one SRAM page fault: what the handler must do and
// what the simulator must charge. Slices are valid until the next
// Translate call.
type Fault struct {
	// ScanAddrs are the page-table entry addresses the clock hand
	// examined choosing a victim (empty when a free frame was used).
	ScanAddrs []uint64
	// UpdateAddrs are the table addresses rewritten to unmap the
	// victim and map the new page.
	UpdateAddrs []uint64
	// VictimValid is true when a page was replaced.
	VictimValid bool
	// VictimDirty is true when the replaced page must be written back
	// to DRAM before its frame is reused.
	VictimDirty bool
	// VictimPageAddr is the SRAM physical base of the replaced page;
	// the simulator purges its blocks from L1 (inclusion, §2.3).
	VictimPageAddr mem.PAddr
	// FirstTouch is true when the faulting page had never been
	// resident before (a compulsory fault).
	FirstTouch bool
	// VictimWasPrefetched is true when the replaced page had been
	// prefetched but never demanded — a wasted prefetch.
	VictimWasPrefetched bool
	// VictimTLBEvicted is true when unmapping the victim shot down a
	// live TLB entry (§2.3: "If a page is replaced from the SRAM main
	// memory, its entry ... in the TLB is flushed").
	VictimTLBEvicted bool
	// PageDRAMAddr is the DRAM physical address backing the faulting
	// page; VictimDRAMAddr backs the replaced page (valid when
	// VictimValid). Address-sensitive DRAM models (banked RDRAM) time
	// the transfers with these.
	PageDRAMAddr   uint64
	VictimDRAMAddr uint64
}

// Outcome describes one translation.
type Outcome struct {
	// Addr is the SRAM physical address.
	Addr mem.PAddr
	// TLBMiss is true when the inverted page table had to be walked;
	// PTProbes then lists the table addresses the walk loaded (valid
	// until the next Translate call).
	TLBMiss  bool
	PTProbes []uint64
	// Fault is non-nil when the page had to be brought in from DRAM.
	Fault *Fault
	// PrefetchHit is true when this is the first demand access to a
	// page that a prefetch had already brought in.
	PrefetchHit bool
}

// Stats counts memory-management events.
type Stats struct {
	Translations   uint64
	TLBMisses      uint64
	PageFaults     uint64
	FirstTouches   uint64
	Writebacks     uint64 // dirty pages written back to DRAM
	Prefetches     uint64 // pages brought in ahead of demand
	PrefetchHits   uint64 // prefetched pages later demanded
	PrefetchWasted uint64 // prefetched pages evicted unused
}

// Memory is the RAMpage SRAM main memory manager. It is not safe for
// concurrent use.
type Memory struct {
	cfg        Config
	pt         *pagetable.Inverted
	tlb        *tlb.TLB
	pageShift  uint
	frames     uint64
	osPages    uint64
	osBytes    uint64
	seen       pageIndex // every page ever faulted in, with its DRAM backing
	prefetched []bool    // per-frame: brought in by prefetch, not yet demanded
	stats      Stats

	// Reusable event buffers, valid until the next Translate.
	probeBuf  []uint64
	scanBuf   []uint64
	updateBuf []uint64
	fault     Fault
}

type seenKey struct {
	pid mem.PID
	vpn uint64
}

// pageIndex records every page the memory has faulted in, in
// first-touch order. The order fixes each page's DRAM backing address,
// rank × PageBytes: the one writer (pageFault) hands addresses out
// from a watermark that starts at 0, and no page ever gives its
// address back, so neither the addresses nor the watermark need
// storing. An open-addressed table of ranks, at most half full, finds
// a page's rank without a Go map. DecodeState copies the pages and
// leaves the table unbuilt; the first fault after a restore builds it
// in one pass, so a restore that never faults again (a finished run)
// never pays for it.
type pageIndex struct {
	pages []seenKey // first-touch order
	slots []uint32  // rank+1 of a page hashed here, 0 = empty; len is a power of two, nil until built
}

// build indexes the pages when the table is unbuilt. A page listed
// twice (only a forged checkpoint can list one) is an error: it would
// have two backing addresses.
func (x *pageIndex) build() error {
	if x.slots == nil && !x.rehash(len(x.pages)) {
		x.slots = nil
		return fmt.Errorf("core: a page is listed twice among the %d pages faulted in", len(x.pages))
	}
	return nil
}

// slotOf returns the first slot k probes.
func (x *pageIndex) slotOf(k seenKey) uint64 {
	return xrand.Mix(uint64(k.pid)<<48^k.vpn) & uint64(len(x.slots)-1)
}

// find returns k's first-touch rank. The table must be built.
func (x *pageIndex) find(k seenKey) (uint64, bool) {
	mask := uint64(len(x.slots) - 1)
	for i := x.slotOf(k); ; i = (i + 1) & mask {
		r := x.slots[i]
		if r == 0 {
			return 0, false
		}
		if x.pages[r-1] == k {
			return uint64(r - 1), true
		}
	}
}

// add appends k, which must be absent, and returns its rank. The table
// must be built.
func (x *pageIndex) add(k seenKey) uint64 {
	x.pages = append(x.pages, k)
	if 2*len(x.pages) > len(x.slots) {
		x.rehash(2 * len(x.pages))
	} else {
		x.place(uint32(len(x.pages)))
	}
	return uint64(len(x.pages) - 1)
}

// place links the page of rank r-1 into the first empty slot of its
// probe sequence. It reports false, placing nothing, when an equal page
// is already there.
func (x *pageIndex) place(r uint32) bool {
	k := x.pages[r-1]
	mask := uint64(len(x.slots) - 1)
	i := x.slotOf(k)
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if x.pages[x.slots[i]-1] == k {
			return false
		}
	}
	x.slots[i] = r
	return true
}

// rehash sizes the slots for at least min entries at most half full
// and places every page again. It reports false on a page listed
// twice.
func (x *pageIndex) rehash(min int) bool {
	n := 16
	for n < 2*min {
		n <<= 1
	}
	x.slots = make([]uint32, n)
	for r := range x.pages {
		if !x.place(uint32(r + 1)) {
			return false
		}
	}
	return true
}

// New builds the SRAM main memory, reserving and pinning the operating
// system region (fixed kernel span plus the inverted page table) in
// the lowest frames, as §4.5 describes.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	frames := cfg.TotalBytes / cfg.PageBytes
	pt, err := pagetable.New(pagetable.Config{
		Frames:     frames,
		PageBytes:  cfg.PageBytes,
		TableBase:  synth.KernelBase + synth.KernelFixedBytes,
		Policy:     cfg.Policy,
		PolicySeed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	tlbCfg := tlb.Config{
		Entries:   cfg.TLBEntries,
		Assoc:     cfg.TLBAssoc,
		PageBytes: cfg.PageBytes,
		Seed:      cfg.Seed,
	}
	tb, err := tlb.New(tlbCfg)
	if err != nil {
		return nil, err
	}
	m := &Memory{
		cfg:        cfg,
		pt:         pt,
		tlb:        tb,
		pageShift:  mem.Log2(cfg.PageBytes),
		frames:     frames,
		prefetched: make([]bool, frames),
	}
	m.osBytes = synth.KernelFixedBytes + pt.TableBytes()
	m.osPages = (m.osBytes + cfg.PageBytes - 1) / cfg.PageBytes
	if m.osPages >= frames {
		return nil, fmt.Errorf("core: OS reservation (%d pages) exceeds SRAM (%d frames) at page size %d",
			m.osPages, frames, cfg.PageBytes)
	}
	// Pin the OS region in the lowest frames and map it in the page
	// table under the kernel PID so the table is self-describing.
	for i := uint64(0); i < m.osPages; i++ {
		f, ok := pt.AllocFree()
		if !ok || f != i {
			return nil, fmt.Errorf("core: OS frame allocation out of order (got %d, want %d)", f, i)
		}
		vpn := (uint64(synth.KernelBase) >> m.pageShift) + i
		if err := pt.Map(mem.KernelPID, vpn, f); err != nil {
			return nil, err
		}
		pt.Pin(f)
	}
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the memory's configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *Memory) Stats() Stats { return m.stats }

// TLBStats exposes the TLB's counters.
func (m *Memory) TLBStats() tlb.Stats { return m.tlb.Stats() }

// SetObserver attaches a metrics observer to the TLB and page table
// (nil detaches). Observation never influences simulated behaviour.
func (m *Memory) SetObserver(obs metrics.Observer) {
	m.tlb.SetObserver(obs)
	m.pt.SetObserver(obs)
}

// PTStats exposes the page table's counters.
func (m *Memory) PTStats() pagetable.Stats { return m.pt.Stats() }

// Frames returns the total number of SRAM page frames.
func (m *Memory) Frames() uint64 { return m.frames }

// OSPages returns the number of pinned operating-system pages — the
// §4.5 reservation (6 pages at 4 KB up to thousands at 128 B).
func (m *Memory) OSPages() uint64 { return m.osPages }

// OSBytes returns the size of the pinned OS region in bytes.
func (m *Memory) OSBytes() uint64 { return m.osBytes }

// PageBytes returns the SRAM page size.
func (m *Memory) PageBytes() uint64 { return m.cfg.PageBytes }

// UserBytes returns the SRAM capacity available to user pages.
func (m *Memory) UserBytes() uint64 { return (m.frames - m.osPages) * m.cfg.PageBytes }

// FreeFrames returns the number of unoccupied SRAM page frames — the
// §4.2 warm-up metric (the hierarchy is warm once this reaches zero).
func (m *Memory) FreeFrames() uint64 { return m.pt.FreeFrames() }

// KernelPhys translates a kernel virtual address directly to its SRAM
// physical address (the OS region is identity-pinned at the bottom of
// SRAM and bypasses the TLB, like a MIPS kseg0 segment).
func (m *Memory) KernelPhys(va mem.VAddr) (mem.PAddr, error) {
	off := uint64(va) - synth.KernelBase
	if uint64(va) < synth.KernelBase || off >= m.osPages*m.cfg.PageBytes {
		return 0, fmt.Errorf("core: kernel address %#x outside pinned OS region", uint64(va))
	}
	return mem.PAddr(off), nil
}

// Translate resolves a user reference to an SRAM physical address,
// performing TLB fill, page-table walk and page replacement as needed.
// The returned Outcome's slices and Fault pointer are valid until the
// next Translate call. Kernel-tagged references must use KernelPhys.
func (m *Memory) Translate(pid mem.PID, va mem.VAddr, write bool) (Outcome, error) {
	if pid == mem.KernelPID {
		pa, err := m.KernelPhys(va)
		if err != nil {
			return Outcome{}, err
		}
		if write {
			m.pt.SetDirty(uint64(pa) >> m.pageShift)
		}
		m.stats.Translations++
		return Outcome{Addr: pa}, nil
	}
	m.stats.Translations++
	if pa, hit := m.tlb.Lookup(pid, va); hit {
		if write {
			m.pt.SetDirty(uint64(pa) >> m.pageShift)
		}
		return Outcome{Addr: pa}, nil
	}
	// TLB miss: walk the pinned inverted page table.
	m.stats.TLBMisses++
	vpn := uint64(va) >> m.pageShift
	m.probeBuf = m.probeBuf[:0]
	frame, probes, found := m.pt.LookupAppend(pid, vpn, m.probeBuf)
	m.probeBuf = probes
	out := Outcome{TLBMiss: true, PTProbes: probes}
	if !found {
		m.stats.PageFaults++
		f, err := m.pageFault(pid, vpn)
		if err != nil {
			return Outcome{}, err
		}
		frame = f
		out.Fault = &m.fault
	} else if m.prefetched[frame] {
		m.prefetched[frame] = false
		m.stats.PrefetchHits++
		out.PrefetchHit = true
	}
	m.tlb.Insert(pid, va, frame)
	if write {
		m.pt.SetDirty(frame)
	}
	out.Addr = mem.PAddr(frame<<m.pageShift | uint64(va)&(m.cfg.PageBytes-1))
	return out, nil
}

// Hot is a flattened view of the memory's translation state for the
// simulator's fused TLB→L1 fast path (package sim). A fast-path hit
// replicates Translate's TLB-hit case exactly: probe TLB.Filter, and on
// a match count a translation and — for a store — set FlagDirty on the
// frame's flags. All slices alias live state; see tlb.Hot and
// pagetable.DirtyHot for the aliasing contracts.
type Hot struct {
	TLB       tlb.Hot
	PTFlags   []uint8
	PageShift uint
	Stats     *Stats
}

// Hot returns the fast-path view. It must be re-captured after the
// machine swaps its Memory (the adaptive resize path builds a new one).
func (m *Memory) Hot() Hot {
	return Hot{
		TLB:       m.tlb.Hot(),
		PTFlags:   m.pt.DirtyHot(),
		PageShift: m.pageShift,
		Stats:     &m.stats,
	}
}

// Recycle returns the memory's page-table slabs to the pagetable arena.
// The Memory must not be used afterwards.
func (m *Memory) Recycle() { m.pt.Recycle() }

// pageFault brings (pid, vpn) into a frame, replacing if necessary,
// and fills m.fault with the event description.
func (m *Memory) pageFault(pid mem.PID, vpn uint64) (uint64, error) {
	if err := m.seen.build(); err != nil {
		return 0, err
	}
	m.scanBuf = m.scanBuf[:0]
	m.updateBuf = m.updateBuf[:0]
	m.fault = Fault{}

	frame, free := m.pt.AllocFree()
	if !free {
		victim, scans, ok := m.pt.ClockSelect(m.scanBuf)
		m.scanBuf = scans
		if !ok {
			return 0, fmt.Errorf("core: no replaceable SRAM page (all pinned)")
		}
		vpid, vvpn, dirty, err := m.pt.Unmap(victim)
		if err != nil {
			return 0, err
		}
		m.fault.VictimTLBEvicted = m.tlb.Invalidate(vpid, mem.VAddr(vvpn<<m.pageShift))
		if rank, ok := m.seen.find(seenKey{vpid, vvpn}); ok {
			m.fault.VictimDRAMAddr = rank * m.cfg.PageBytes
		}
		m.fault.ScanAddrs = m.scanBuf
		m.fault.VictimValid = true
		m.fault.VictimDirty = dirty
		m.fault.VictimPageAddr = mem.PAddr(victim << m.pageShift)
		if m.prefetched[victim] {
			m.prefetched[victim] = false
			m.stats.PrefetchWasted++
			m.fault.VictimWasPrefetched = true
		}
		if dirty {
			m.stats.Writebacks++
		}
		m.updateBuf = append(m.updateBuf, m.pt.EntryAddr(victim))
		frame = victim
	}
	if err := m.pt.Map(pid, vpn, frame); err != nil {
		return 0, err
	}
	m.updateBuf = append(m.updateBuf, m.pt.EntryAddr(frame))
	m.fault.UpdateAddrs = m.updateBuf

	key := seenKey{pid, vpn}
	rank, ok := m.seen.find(key)
	if !ok {
		rank = m.seen.add(key)
		m.fault.FirstTouch = true
		m.stats.FirstTouches++
	}
	m.fault.PageDRAMAddr = rank * m.cfg.PageBytes
	// Tell the replacement policy about the arrival; a refault (page
	// was resident before and is back) is the signal the adaptive
	// policies key on.
	m.pt.PolicyInsert(frame, !m.fault.FirstTouch)
	return frame, nil
}

// Prefetch brings (pid, vpn) into a frame ahead of demand (the §3.2
// extension: "Prefetch could be added to RAMpage"). It reports false
// with no error when the page is already resident or no frame can be
// freed. On success the returned Fault describes the replacement work
// and the page's SRAM address is returned; no TLB entry is installed
// (the first demand access takes a cheap TLB miss that hits the pinned
// page table). The Fault shares Translate's buffers: consume it before
// the next Translate or Prefetch call.
func (m *Memory) Prefetch(pid mem.PID, vpn uint64) (*Fault, mem.PAddr, bool, error) {
	if pid == mem.KernelPID {
		return nil, 0, false, nil // the OS region is pinned already
	}
	if _, _, found := m.pt.Lookup(pid, vpn); found {
		return nil, 0, false, nil
	}
	frame, err := m.pageFault(pid, vpn)
	if err != nil {
		// "No replaceable frame" is a benign reason to skip a prefetch.
		return nil, 0, false, nil
	}
	m.prefetched[frame] = true
	m.stats.Prefetches++
	return &m.fault, mem.PAddr(frame << m.pageShift), true, nil
}

// PinPage excludes the SRAM page containing pa from replacement.
// Switch-on-miss mode pins a page while its DRAM transfer is in
// flight, exactly as an operating system locks a frame during I/O —
// otherwise the clock hand could steal the page before its blocked
// process ever runs again.
func (m *Memory) PinPage(pa mem.PAddr) {
	frame := uint64(pa) >> m.pageShift
	if frame < m.frames {
		m.pt.Pin(frame)
	}
}

// UnpinPage reverses PinPage once the transfer completes.
func (m *Memory) UnpinPage(pa mem.PAddr) {
	frame := uint64(pa) >> m.pageShift
	if frame >= m.osPages && frame < m.frames {
		m.pt.Unpin(frame)
	}
}

// MarkDirty records that the SRAM page containing pa received a
// write-back from L1 (its eventual replacement must write it to DRAM).
func (m *Memory) MarkDirty(pa mem.PAddr) {
	frame := uint64(pa) >> m.pageShift
	if frame < m.frames {
		m.pt.SetDirty(frame)
	}
}

// FrameInfo reports a frame's page-table mapping and state, for
// invariant checking.
func (m *Memory) FrameInfo(frame uint64) (pid mem.PID, vpn uint64, valid, dirty, pinned bool) {
	return m.pt.FrameInfo(frame)
}

// ClockHand returns the replacement clock hand's position (zero when
// the configured policy has no hand).
func (m *Memory) ClockHand() uint64 { return m.pt.Hand() }

// PolicyName returns the replacement policy's canonical name.
func (m *Memory) PolicyName() string { return m.pt.PolicyName() }

// CheckPolicyState verifies the replacement policy's internal
// invariants (hand bounds, counter ranges, geometry).
func (m *Memory) CheckPolicyState() error { return m.pt.CheckPolicyState() }

// ForEachTLBEntry invokes fn for every resident TLB translation,
// without touching statistics or replacement state.
func (m *Memory) ForEachTLBEntry(fn func(pid mem.PID, vpn, frame uint64)) {
	m.tlb.ForEachValid(fn)
}

// CheckTLBConsistency verifies the TLB's internal acceleration
// structures against its authoritative entries.
func (m *Memory) CheckTLBConsistency() error { return m.tlb.CheckConsistency() }

// DirtyUserPages returns the number of resident user pages that would
// need writing back to DRAM if the SRAM were flushed — the cost basis
// for a dynamic page-size switch (§6.2).
func (m *Memory) DirtyUserPages() uint64 {
	var n uint64
	for f := m.osPages; f < m.frames; f++ {
		if _, _, valid, dirty, _ := m.pt.FrameInfo(f); valid && dirty {
			n++
		}
	}
	return n
}

// Resident reports whether (pid, va) is currently in SRAM, without
// disturbing TLB or page-table state beyond statistics.
func (m *Memory) Resident(pid mem.PID, va mem.VAddr) bool {
	if pid == mem.KernelPID {
		_, err := m.KernelPhys(va)
		return err == nil
	}
	if m.tlb.Probe(pid, va) {
		return true
	}
	_, _, found := m.pt.Lookup(pid, uint64(va)>>m.pageShift)
	return found
}
