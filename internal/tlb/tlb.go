// Package tlb models the translation lookaside buffer of §4.3: 64
// entries, fully associative, random replacement, one-cycle (fully
// pipelined) hits. The same model, configured with more entries and
// set-associativity, covers the 1K-entry 2-way TLB of the §6.3 future-
// work measurements.
//
// The TLB's role differs between the two hierarchies (§2.3): in the
// baseline it caches virtual→DRAM translations of fixed 4 KB pages; in
// RAMpage it caches virtual→SRAM-main-memory translations whose page
// size is the SRAM page size, so small SRAM pages shrink TLB reach —
// the source of the Figure 4 overhead spike.
//
// Entries are tagged with the owning process (an address-space ID), so
// context switches need not flush; when a page is replaced from the
// SRAM main memory its TLB entry is invalidated (§2.3).
//
// The entry store is columnar — parallel keys/vpns/frames arrays
// instead of an array of structs — so the simulator's hottest loop
// (the hit scan, and the fused TLB→L1 fast path that package sim
// builds over Hot) touches one or two cache lines per probe instead
// of a four-field struct per way.
package tlb

import (
	"fmt"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/xrand"
)

// Config describes a TLB.
type Config struct {
	// Entries is the total entry count (power of two).
	Entries int
	// Assoc is ways per set; 0 means fully associative.
	Assoc int
	// PageBytes is the size of the pages being translated (power of
	// two). This is the SRAM page size in RAMpage and the DRAM page
	// size in the baseline.
	PageBytes uint64
	// Seed feeds the deterministic random replacement.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || !mem.IsPow2(uint64(c.Entries)) {
		return fmt.Errorf("tlb: entry count %d is not a positive power of two", c.Entries)
	}
	if c.Assoc < 0 || c.Assoc > c.Entries {
		return fmt.Errorf("tlb: associativity %d out of range", c.Assoc)
	}
	if c.PageBytes == 0 || !mem.IsPow2(c.PageBytes) {
		return fmt.Errorf("tlb: page size %d is not a power of two", c.PageBytes)
	}
	return nil
}

// DefaultConfig is the paper's TLB: 64 entries, fully associative.
func DefaultConfig(pageBytes uint64) Config {
	return Config{Entries: 64, Assoc: 0, PageBytes: pageBytes}
}

// Stats counts TLB events.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Flushes       uint64
}

// MissRate returns misses / (hits + misses).
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// TLB is the translation buffer. It is not safe for concurrent use.
//
// The entry store is three parallel arrays indexed by slot:
//
//	keys[i]   = vpns[i]<<16 | pid  (keyInvalid when the slot is free)
//	vpns[i]   = full virtual page number (vpnInvalid when free)
//	frames[i] = physical frame number
//
// A probe matches slot i when keys[i] == packKey(pid, vpn) AND
// vpns[i] == vpn: the vpn comparison is full-width, so equal keys then
// force the low 16 bits — the PID — to be equal too, making the pair
// of comparisons exact without a separate pid column or valid bit.
type TLB struct {
	cfg       Config
	keys      []uint64
	vpns      []uint64
	frames    []uint64
	assoc     int
	setMask   uint64
	pageShift uint
	rng       *xrand.RNG
	stats     Stats
	obs       metrics.Observer // nil unless probing is attached
	// filter is a direct-mapped cache of recent hit positions: it maps
	// (vpn^pid)&FilterMask to the entry index that last hit for that
	// translation. A filter probe is verified against keys and vpns, so
	// a stale slot can only cost a fall-through to the scan, never a
	// wrong translation. Replacement is random and hits update no TLB
	// state, so the filter is invisible to simulated behavior.
	filter []int32
}

// FilterSlots is the size of the hit-position filter. It is behavior-
// invisible (see the filter field), so growing it is purely a host-
// speed knob; 16384 slots keep the filter load factor low across the
// 18-process Table 2 workload — whose processes reuse the same virtual
// page numbers, so slots must separate streams by PID alone, putting
// thousands of distinct (vpn^pid) values in play — while costing only
// 64 KB of host memory.
const (
	FilterSlots = 16384
	FilterMask  = FilterSlots - 1
)

// keyInvalid marks an empty slot in the packed key array, and
// vpnInvalid the matching empty slot in the vpn column. A real
// translation can never present vpn == vpnInvalid (it would need a
// one-byte page size and the very top page of the address space), so
// the two-comparison match in lookup never false-hits a free slot.
const (
	keyInvalid = ^uint64(0)
	vpnInvalid = ^uint64(0)
)

func packKey(pid mem.PID, vpn uint64) uint64 { return vpn<<16 | uint64(pid) }

// PackKey exposes the packed-key encoding for the simulator's fused
// fast path (package sim), which probes Hot views inline.
func PackKey(pid mem.PID, vpn uint64) uint64 { return packKey(pid, vpn) }

// New builds a TLB from a validated configuration.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = cfg.Entries
	}
	sets := cfg.Entries / assoc
	if sets*assoc != cfg.Entries || !mem.IsPow2(uint64(sets)) {
		return nil, fmt.Errorf("tlb: %d entries not divisible into %d-way sets", cfg.Entries, assoc)
	}
	keys := make([]uint64, cfg.Entries)
	vpns := make([]uint64, cfg.Entries)
	for i := range keys {
		keys[i] = keyInvalid
		vpns[i] = vpnInvalid
	}
	return &TLB{
		cfg:       cfg,
		keys:      keys,
		vpns:      vpns,
		frames:    make([]uint64, cfg.Entries),
		assoc:     assoc,
		setMask:   uint64(sets - 1),
		pageShift: mem.Log2(cfg.PageBytes),
		rng:       xrand.New(cfg.Seed ^ 0x71B),
		filter:    make([]int32, FilterSlots),
	}, nil
}

// MustNew is New but panics on error, for fixed known-good configs.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// SetObserver attaches a metrics observer (nil detaches). The observer
// sees hit/miss/evict/flush events; it never influences TLB behaviour.
func (t *TLB) SetObserver(obs metrics.Observer) { t.obs = obs }

// VPN returns the virtual page number of addr under this TLB's page
// size.
func (t *TLB) VPN(addr mem.VAddr) uint64 { return uint64(addr) >> t.pageShift }

// Hot is a flattened, read-mostly view of the TLB for the simulator's
// fused TLB→L1 fast path. The slices alias the TLB's live arrays —
// they are never reallocated after New — so a view captured once stays
// current. A full fast-path probe mirrors lookup exactly:
//
//	fi := Filter[(vpn^pid)&FilterMask]
//	hit := Keys[fi] == PackKey(pid, vpn) && VPNs[fi] == vpn
//	pa  := Frames[fi]<<PageShift | addr&OffMask
//
// and on a filter miss, a scan of the set (base = (vpn&SetMask)*Assoc,
// Assoc consecutive entries) with the same two-compare match, writing
// the hit position back to Filter. A probe that misses both is a true
// TLB miss and must fall back to the TLB's own methods. The caller
// accumulates Stats.Hits batch-locally and flushes through Stats.
type Hot struct {
	Keys      []uint64
	VPNs      []uint64
	Frames    []uint64
	Filter    []int32
	SetMask   uint64
	Assoc     uint64
	PageShift uint
	OffMask   uint64
	Stats     *Stats
}

// Hot returns the fast-path view. The view is invalidated by nothing
// short of building a new TLB.
func (t *TLB) Hot() Hot {
	return Hot{
		Keys:      t.keys,
		VPNs:      t.vpns,
		Frames:    t.frames,
		Filter:    t.filter,
		SetMask:   t.setMask,
		Assoc:     uint64(t.assoc),
		PageShift: t.pageShift,
		OffMask:   t.cfg.PageBytes - 1,
		Stats:     &t.stats,
	}
}

// Lookup translates (pid, addr). On a hit it returns the physical
// address (frame base plus page offset) and true. On a miss it returns
// false; the caller runs the page-table walk and then calls Insert.
func (t *TLB) Lookup(pid mem.PID, addr mem.VAddr) (mem.PAddr, bool) {
	if pa, ok := t.lookup(pid, addr); ok {
		t.stats.Hits++
		if t.obs != nil {
			t.obs.Count(metrics.EvTLBHit, 1)
		}
		return pa, true
	}
	t.stats.Misses++
	if t.obs != nil {
		t.obs.Count(metrics.EvTLBMiss, 1)
	}
	return 0, false
}

func (t *TLB) lookup(pid mem.PID, addr mem.VAddr) (mem.PAddr, bool) {
	vpn := uint64(addr) >> t.pageShift
	key := packKey(pid, vpn)
	fidx := (vpn ^ uint64(pid)) & FilterMask
	if fi := uint64(t.filter[fidx]); t.keys[fi] == key && t.vpns[fi] == vpn {
		off := uint64(addr) & (t.cfg.PageBytes - 1)
		return mem.PAddr(t.frames[fi]<<t.pageShift | off), true
	}
	base := (vpn & t.setMask) * uint64(t.assoc)
	keys := t.keys[base : base+uint64(t.assoc)]
	for i := range keys {
		if keys[i] == key && t.vpns[base+uint64(i)] == vpn {
			t.filter[fidx] = int32(base + uint64(i))
			off := uint64(addr) & (t.cfg.PageBytes - 1)
			return mem.PAddr(t.frames[base+uint64(i)]<<t.pageShift | off), true
		}
	}
	return 0, false
}

// Probe reports whether a translation is present without touching
// statistics.
func (t *TLB) Probe(pid mem.PID, addr mem.VAddr) bool {
	vpn := t.VPN(addr)
	key := packKey(pid, vpn)
	base := (vpn & t.setMask) * uint64(t.assoc)
	for i := base; i < base+uint64(t.assoc); i++ {
		if t.keys[i] == key && t.vpns[i] == vpn {
			return true
		}
	}
	return false
}

// Insert installs a translation from (pid, vpn of addr) to the given
// physical frame number, replacing a random entry if the set is full.
func (t *TLB) Insert(pid mem.PID, addr mem.VAddr, frame uint64) {
	vpn := t.VPN(addr)
	key := packKey(pid, vpn)
	base := (vpn & t.setMask) * uint64(t.assoc)
	// Reuse an existing or invalid slot first.
	victim := int64(-1)
	for i := base; i < base+uint64(t.assoc); i++ {
		if t.keys[i] == key && t.vpns[i] == vpn {
			t.frames[i] = frame
			t.filter[(vpn^uint64(pid))&FilterMask] = int32(i)
			return
		}
		if t.vpns[i] == vpnInvalid && victim < 0 {
			victim = int64(i)
		}
	}
	if victim < 0 {
		victim = int64(base + uint64(t.rng.Intn(t.assoc)))
	}
	t.keys[victim] = key
	t.vpns[victim] = vpn
	t.frames[victim] = frame
	t.filter[(vpn^uint64(pid))&FilterMask] = int32(victim)
}

// Invalidate removes the translation for (pid, vpn of addr) if present,
// reporting whether it was. The RAMpage page-replacement path uses it
// (§2.3: "If a page is replaced from the SRAM main memory, its entry
// ... in the TLB is flushed").
func (t *TLB) Invalidate(pid mem.PID, addr mem.VAddr) bool {
	vpn := t.VPN(addr)
	key := packKey(pid, vpn)
	base := (vpn & t.setMask) * uint64(t.assoc)
	for i := base; i < base+uint64(t.assoc); i++ {
		if t.keys[i] == key && t.vpns[i] == vpn {
			t.clearSlot(i)
			t.stats.Invalidations++
			if t.obs != nil {
				t.obs.Count(metrics.EvTLBEvict, 1)
			}
			return true
		}
	}
	return false
}

func (t *TLB) clearSlot(i uint64) {
	t.keys[i] = keyInvalid
	t.vpns[i] = vpnInvalid
	t.frames[i] = 0
}

// FlushPID removes all translations belonging to pid (used when an
// address space is destroyed).
func (t *TLB) FlushPID(pid mem.PID) {
	for i := range t.keys {
		if t.vpns[i] != vpnInvalid && mem.PID(t.keys[i]) == pid {
			t.clearSlot(uint64(i))
		}
	}
	t.stats.Flushes++
	if t.obs != nil {
		t.obs.Count(metrics.EvTLBFlush, 1)
	}
}

// FlushAll empties the TLB.
func (t *TLB) FlushAll() {
	for i := range t.keys {
		t.clearSlot(uint64(i))
	}
	t.stats.Flushes++
	if t.obs != nil {
		t.obs.Count(metrics.EvTLBFlush, 1)
	}
}

// ForEachValid invokes fn for every resident translation, without
// touching statistics or replacement state. The invariant checker uses
// it to verify TLB–page-table coherence.
func (t *TLB) ForEachValid(fn func(pid mem.PID, vpn, frame uint64)) {
	for i := range t.keys {
		if t.vpns[i] != vpnInvalid {
			fn(mem.PID(t.keys[i]), t.vpns[i], t.frames[i])
		}
	}
}

// CheckConsistency verifies the TLB's internal acceleration structures
// against the authoritative columns: every live slot's packed key must
// mirror its vpn column, every free slot must hold both sentinels, and
// every filter slot must index a real entry. A violation here means
// the fast lookup path could disagree with the slow one.
func (t *TLB) CheckConsistency() error {
	for i := range t.keys {
		if t.vpns[i] != vpnInvalid {
			if want := t.vpns[i]<<16 | t.keys[i]&0xFFFF; t.keys[i] != want {
				return fmt.Errorf("tlb: entry %d key %#x does not mirror vpn %#x", i, t.keys[i], t.vpns[i])
			}
		} else if t.keys[i] != keyInvalid {
			return fmt.Errorf("tlb: free entry %d has live key %#x", i, t.keys[i])
		}
	}
	for i, fi := range t.filter {
		if fi < 0 || int(fi) >= len(t.keys) {
			return fmt.Errorf("tlb: filter slot %d indexes out-of-range entry %d", i, fi)
		}
	}
	return nil
}

// Reach returns the bytes of address space the TLB can map when full —
// the quantity that collapses for small RAMpage pages (Figure 4).
func (t *TLB) Reach() uint64 {
	return uint64(t.cfg.Entries) * t.cfg.PageBytes
}
