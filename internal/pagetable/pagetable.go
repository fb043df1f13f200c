// Package pagetable implements the inverted page table of §2.2 — a
// table indexed on the physical instead of the virtual address, chosen
// because the SRAM main memory is small, the table size is fixed (so
// the whole table can be pinned in SRAM), and with the table pinned a
// TLB miss need never reference DRAM. The same organization serves the
// DRAM paging device ("same organization as RAMpage main memory, for
// simplicity", §4.3).
//
// The structure is the classic hash-anchor-table design: a hash of
// (process, virtual page number) selects a bucket whose chain links
// frame entries. Lookups report the table addresses they probe so the
// TLB-miss handler trace (package synth) can replay the walk through
// the simulated caches — the probe cost is the paper's "inverted page
// table is slower on lookup than a forward page table".
//
// Replacement is pluggable (package policy). The default is the
// standard clock algorithm of §4.5: "a clock hand advances through the
// page table, marking each page that has previously been marked as 'in
// use' as 'unused', until an 'unused' page is found." Config.Policy
// selects fifo, random, awrp or bandwidth instead; the table keeps
// owning the per-frame flag bits and reports reference/insert events
// to the policy through its hooks.
//
// Storage is columnar (parallel vpn/pid/flag/link columns) and arena-
// backed: every table's columns are carved from a pair of slabs sized
// by the configuration, and Recycle returns the slabs to a per-size
// pool so the sweep harness, which builds one table per grid cell (and
// the adaptive machine, one per resize epoch), reaches a steady state
// with no per-cell table allocation at all.
package pagetable

import (
	"fmt"
	"sync"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/policy"
	"rampage/internal/xrand"
)

// EntryBytes is the size of one inverted-page-table entry. With
// 32768 frames (a 4 MB SRAM at 128 B pages) the table is 512 KB, which
// together with the hash anchor table reproduces the §4.5 operating-
// system footprint scaling (5336 × 128 B pages at the small end).
const EntryBytes = 16

// HATEntryBytes is the size of one hash-anchor-table slot.
const HATEntryBytes = 4

// Config describes an inverted page table.
type Config struct {
	// Frames is the number of physical page frames mapped.
	Frames uint64
	// PageBytes is the page size (power of two).
	PageBytes uint64
	// TableBase is the virtual address at which the table lives, used
	// to synthesize handler data references. The hash anchor table
	// starts at TableBase; frame entries follow it.
	TableBase uint64
	// Scramble shuffles the initial free list so frames are handed out
	// in pseudo-random order, modeling the page placement of a long-
	// running operating system. Random placement is what produces
	// conflict misses in a physically-indexed direct-mapped cache (the
	// [KH92b]/[BLRC94] problem the paper cites); without it a
	// sequential first-touch allocation gives the baseline an
	// unrealistically conflict-free layout. ScrambleSeed makes the
	// shuffle deterministic.
	Scramble     bool
	ScrambleSeed uint64
	// Policy selects the replacement policy ("" or "clock" is the
	// paper's clock algorithm; see package policy for the vocabulary).
	Policy string
	// PolicySeed feeds the seeded policies (random); deterministic
	// policies ignore it.
	PolicySeed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Frames == 0 {
		return fmt.Errorf("pagetable: zero frames")
	}
	if c.PageBytes == 0 || !mem.IsPow2(c.PageBytes) {
		return fmt.Errorf("pagetable: page size %d is not a power of two", c.PageBytes)
	}
	if _, err := policy.Parse(c.Policy); err != nil {
		return err
	}
	return nil
}

// Stats counts page-table events.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Probes     uint64 // total chain entries examined (collisions show up here)
	ClockScans uint64 // total entries examined by the clock hand
	Maps       uint64
	Unmaps     uint64
}

// Entry flag bits in the flags column (canonical values live in
// package policy, which ranks frames by reading this column).
const (
	flagValid  = policy.FlagValid  // frame maps a page
	flagUsed   = policy.FlagUsed   // clock reference bit
	FlagDirty  = policy.FlagDirty  // page must be written back on replacement
	flagPinned = policy.FlagPinned // excluded from replacement
)

// Inverted is the inverted page table. It is not safe for concurrent
// use. Per-frame state is columnar: vpns, pids, flags, and the hash-
// chain links live in parallel arrays carved from pooled slabs.
type Inverted struct {
	cfg      Config
	vpns     []uint64
	pids     []mem.PID
	flags    []uint8
	next     []int32 // next frame in hash chain, -1 = end
	hat      []int32 // bucket -> first frame, -1 = empty
	hatMask  uint64
	freeHead int32
	freeNext []int32 // free-list links
	pol      policy.ReplacementPolicy
	view     policy.View
	stats    Stats
	obs      metrics.Observer // nil unless probing is attached
	slab     *slab            // backing storage, returned to the arena by Recycle
}

// slab bundles the backing arrays of one table so Recycle can hand
// them back to the arena as a unit. The free-list links depend only on
// the construction order (Frames, Scramble, ScrambleSeed) and are never
// written after New, so a slab remembers the order it holds and a
// table built on it for the same order skips the shuffle.
type slab struct {
	i32  []int32 // hat | next | freeNext
	vpns []uint64
	pids []mem.PID
	u8   []uint8

	built        bool // freeNext holds the order below
	scramble     bool
	scrambleSeed uint64
}

// holds reports whether the slab's free-list links are the
// construction order cfg asks for.
func (s *slab) holds(cfg Config) bool {
	return s.built && s.scramble == cfg.Scramble && (!cfg.Scramble || s.scrambleSeed == cfg.ScrambleSeed)
}

type arenaKey struct{ frames, hatSize uint64 }

// arena pools table slabs by geometry. New draws from it and Recycle
// returns to it, so repeated table construction at the same
// configuration — one per sweep cell, one per adaptive resize —
// allocates only on first use.
var (
	arenaMu sync.Mutex
	arenas  = make(map[arenaKey]*sync.Pool)
)

func arenaFor(k arenaKey) *sync.Pool {
	arenaMu.Lock()
	p, ok := arenas[k]
	if !ok {
		p = &sync.Pool{}
		arenas[k] = p
	}
	arenaMu.Unlock()
	return p
}

// getSlab obtains a slab of the given geometry, reusing a recycled one
// when available. A recycled slab's entry columns (vpns, pids, flags)
// are cleared; its link columns are left as they were, since New fills
// the anchors, a chain link is dead until Map writes it, and the
// free-list links are still valid for the construction order the slab
// records.
func getSlab(frames, hatSize uint64) *slab {
	pool := arenaFor(arenaKey{frames, hatSize})
	s, _ := pool.Get().(*slab)
	if s == nil {
		return &slab{
			i32:  make([]int32, hatSize+2*frames),
			vpns: make([]uint64, frames),
			pids: make([]mem.PID, frames),
			u8:   make([]uint8, frames),
		}
	}
	clear(s.vpns)
	clear(s.pids)
	clear(s.u8)
	return s
}

// hatSizeFor rounds the frame count up to a power of two — the hash
// anchor table size that keeps chains short.
func hatSizeFor(frames uint64) uint64 {
	hatSize := uint64(1)
	for hatSize < frames {
		hatSize <<= 1
	}
	return hatSize
}

// New builds an inverted page table with all frames free. The free
// list is the construction order: frame 0 first, then every frame in
// turn, or, with Scramble, the frames past the lowest 1/32 in an order
// shuffled from ScrambleSeed. The table hands frames out in that order
// and never returns one to the list (a replaced page's frame is
// remapped at once), so the free list is always a suffix of the order.
// A slab recycled from a table of the same geometry and order keeps
// its links, and New then skips the shuffle.
func New(cfg Config) (*Inverted, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hatSize := hatSizeFor(cfg.Frames)
	s := getSlab(cfg.Frames, hatSize)
	pt := &Inverted{
		cfg:      cfg,
		vpns:     s.vpns,
		pids:     s.pids,
		flags:    s.u8,
		hat:      s.i32[:hatSize:hatSize],
		next:     s.i32[hatSize : hatSize+cfg.Frames : hatSize+cfg.Frames],
		freeNext: s.i32[hatSize+cfg.Frames:],
		hatMask:  hatSize - 1,
		slab:     s,
	}
	pol, err := policy.New(cfg.Policy, cfg.Frames, cfg.PolicySeed)
	if err != nil {
		return nil, err
	}
	pt.pol = pol
	pt.view = policy.View{
		Flags:     pt.flags,
		EntryBase: cfg.TableBase + hatSize*HATEntryBytes,
		EntrySize: EntryBytes,
	}
	for i := range pt.hat {
		pt.hat[i] = -1
	}
	if !s.holds(cfg) {
		pt.buildFreeList()
		s.built, s.scramble, s.scrambleSeed = true, cfg.Scramble, cfg.ScrambleSeed
	}
	// Every construction order starts at frame 0: the shuffle keeps
	// the lowest frames in place.
	pt.freeHead = 0
	return pt, nil
}

// buildFreeList links the free-list column in construction order. The
// next column is dead until Map links a frame into a chain, so it
// doubles as the permutation scratch: no separate order array, no
// extra allocation.
func (pt *Inverted) buildFreeList() {
	order := pt.next
	for i := range order {
		order[i] = int32(i)
	}
	if pt.cfg.Scramble {
		// Fisher–Yates, deterministic from the seed. The lowest frames
		// are kept in place so callers can still reserve a contiguous
		// kernel region before user allocation begins; only the tail
		// beyond the first 1/32 of frames is shuffled.
		rng := xrand.New(pt.cfg.ScrambleSeed ^ 0x5C4A3B1E)
		fixed := int(pt.cfg.Frames / 32)
		for i := len(order) - 1; i > fixed; i-- {
			j := fixed + 1 + rng.Intn(i-fixed)
			order[i], order[j] = order[j], order[i]
		}
	}
	for i := 0; i < len(order)-1; i++ {
		pt.freeNext[order[i]] = order[i+1]
	}
	pt.freeNext[order[len(order)-1]] = -1
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Inverted {
	pt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return pt
}

// Recycle returns the table's backing slabs to the arena for reuse by
// a future New with the same geometry. The table must not be used
// afterwards — its columns are gone, and any access will panic rather
// than corrupt a successor table. Recycling is optional (an
// un-recycled table is simply garbage collected) and idempotent.
func (pt *Inverted) Recycle() {
	if pt == nil || pt.slab == nil {
		return
	}
	s := pt.slab
	pt.slab = nil
	pt.vpns, pt.pids, pt.flags = nil, nil, nil
	pt.hat, pt.next, pt.freeNext = nil, nil, nil
	arenaFor(arenaKey{pt.cfg.Frames, uint64(cap(s.i32)) - 2*pt.cfg.Frames}).Put(s)
}

// Config returns the table's configuration.
func (pt *Inverted) Config() Config { return pt.cfg }

// Stats returns a copy of the counters.
func (pt *Inverted) Stats() Stats { return pt.stats }

// SetObserver attaches a metrics observer (nil detaches). The observer
// sees walk chain lengths and clock-sweep lengths; it never influences
// table behaviour.
func (pt *Inverted) SetObserver(obs metrics.Observer) { pt.obs = obs }

// DirtyHot exposes the flags column for the simulator's fused TLB→L1
// fast path: a store to a translated address marks its frame dirty
// with Flags[frame] |= FlagDirty, exactly what SetDirty does. The
// slice aliases the live column; it is never reallocated.
func (pt *Inverted) DirtyHot() []uint8 { return pt.flags }

// TableBytes returns the memory footprint of the table structures
// (hash anchor table plus frame entries) — the part of the §4.5
// operating-system reservation that scales with page size.
func (pt *Inverted) TableBytes() uint64 {
	return uint64(len(pt.hat))*HATEntryBytes + pt.cfg.Frames*EntryBytes
}

// hash maps (pid, vpn) to a bucket.
func (pt *Inverted) hash(pid mem.PID, vpn uint64) uint64 {
	return xrand.Mix(uint64(pid)<<48^vpn) & pt.hatMask
}

// HATAddr returns the virtual address of a bucket slot.
func (pt *Inverted) HATAddr(bucket uint64) uint64 {
	return pt.cfg.TableBase + bucket*HATEntryBytes
}

// EntryAddr returns the virtual address of a frame's table entry.
func (pt *Inverted) EntryAddr(frame uint64) uint64 {
	return pt.cfg.TableBase + uint64(len(pt.hat))*HATEntryBytes + frame*EntryBytes
}

// Lookup finds the frame mapping (pid, vpn). probeAddrs lists the
// table addresses the walk touched — the hash-anchor slot and each
// chain entry examined — for replay as handler data references. The
// walk marks the found frame's use bit (a reference has occurred).
func (pt *Inverted) Lookup(pid mem.PID, vpn uint64) (frame uint64, probeAddrs []uint64, ok bool) {
	return pt.lookup(pid, vpn, nil)
}

// LookupAppend is Lookup with a caller-provided probe buffer to avoid
// per-miss allocation on the simulator's hot path.
func (pt *Inverted) LookupAppend(pid mem.PID, vpn uint64, probes []uint64) (uint64, []uint64, bool) {
	return pt.lookup(pid, vpn, probes)
}

func (pt *Inverted) lookup(pid mem.PID, vpn uint64, probes []uint64) (uint64, []uint64, bool) {
	pt.stats.Lookups++
	bucket := pt.hash(pid, vpn)
	probes = append(probes, pt.HATAddr(bucket))
	var chain uint64
	for idx := pt.hat[bucket]; idx >= 0; idx = pt.next[idx] {
		pt.stats.Probes++
		chain++
		probes = append(probes, pt.EntryAddr(uint64(idx)))
		if pt.flags[idx]&flagValid != 0 && pt.pids[idx] == pid && pt.vpns[idx] == vpn {
			pt.stats.Hits++
			pt.flags[idx] |= flagUsed
			pt.pol.Touch(uint64(idx))
			if pt.obs != nil {
				pt.obs.Observe(metrics.EvPTProbes, chain)
			}
			return uint64(idx), probes, true
		}
	}
	if pt.obs != nil {
		pt.obs.Observe(metrics.EvPTProbes, chain)
	}
	return 0, probes, false
}

// AllocFree pops a free frame, or reports none.
func (pt *Inverted) AllocFree() (uint64, bool) {
	f := pt.freeHead
	if f < 0 {
		return 0, false
	}
	pt.freeHead = pt.freeNext[f]
	return uint64(f), true
}

// FreeFrames returns the number of unallocated frames. The links are
// New's construction order, ending at -1, and DecodeState accepts only
// a head inside the table, so the walk always ends.
func (pt *Inverted) FreeFrames() uint64 {
	var n uint64
	for f := pt.freeHead; f >= 0; f = pt.freeNext[f] {
		n++
	}
	return n
}

// Map installs (pid, vpn) -> frame. The frame must be unmapped (fresh
// from AllocFree or Unmap).
func (pt *Inverted) Map(pid mem.PID, vpn, frame uint64) error {
	if frame >= pt.cfg.Frames {
		return fmt.Errorf("pagetable: frame %d out of range", frame)
	}
	if pt.flags[frame]&flagValid != 0 {
		return fmt.Errorf("pagetable: frame %d already maps (pid %d, vpn %#x)", frame, pt.pids[frame], pt.vpns[frame])
	}
	bucket := pt.hash(pid, vpn)
	pt.vpns[frame] = vpn
	pt.pids[frame] = pid
	pt.flags[frame] = flagValid | flagUsed
	pt.next[frame] = pt.hat[bucket]
	pt.hat[bucket] = int32(frame)
	pt.stats.Maps++
	return nil
}

// Unmap removes frame's mapping and returns it. The frame is NOT
// returned to the free list: the caller remaps it at once (page
// replacement), so the free list stays a suffix of the construction
// order. A mapped frame missing from its hash chain is an error:
// linked elsewhere, it would loop that chain once remapped.
func (pt *Inverted) Unmap(frame uint64) (pid mem.PID, vpn uint64, dirty bool, err error) {
	if frame >= pt.cfg.Frames || pt.flags[frame]&flagValid == 0 {
		return 0, 0, false, fmt.Errorf("pagetable: frame %d not mapped", frame)
	}
	pid, vpn = pt.pids[frame], pt.vpns[frame]
	dirty = pt.flags[frame]&FlagDirty != 0
	bucket := pt.hash(pid, vpn)
	// Unlink from the chain.
	if pt.hat[bucket] == int32(frame) {
		pt.hat[bucket] = pt.next[frame]
	} else {
		for idx := pt.hat[bucket]; ; idx = pt.next[idx] {
			if idx < 0 {
				return 0, 0, false, fmt.Errorf("pagetable: frame %d is not on its hash chain", frame)
			}
			if pt.next[idx] == int32(frame) {
				pt.next[idx] = pt.next[frame]
				break
			}
		}
	}
	pt.vpns[frame] = 0
	pt.pids[frame] = 0
	pt.flags[frame] = 0
	pt.next[frame] = 0
	pt.stats.Unmaps++
	return pid, vpn, dirty, nil
}

// Touch sets the frame's reference bit and reports the reference to
// the replacement policy.
func (pt *Inverted) Touch(frame uint64) {
	pt.flags[frame] |= flagUsed
	pt.pol.Touch(frame)
}

// PolicyInsert reports to the replacement policy that a page fault
// installed a page into frame; refault is true when the page had been
// resident before. Callers invoke it after Map during fault handling
// (the pinned OS mappings built at construction never enter the
// replacement ranking).
func (pt *Inverted) PolicyInsert(frame uint64, refault bool) {
	pt.pol.Insert(frame, refault)
}

// SetDirty marks the frame's page dirty (it must be written back on
// replacement).
func (pt *Inverted) SetDirty(frame uint64) { pt.flags[frame] |= FlagDirty }

// Pin excludes the frame from replacement — the §4.5/§2.3 mechanism
// that keeps the page table, handler code and context-switch
// structures resident in SRAM. It is also used transiently to protect
// a frame whose page transfer is still in flight (switch-on-miss).
func (pt *Inverted) Pin(frame uint64) {
	pt.flags[frame] |= flagPinned
	pt.pol.Pin(frame)
}

// Unpin makes the frame replaceable again (the transfer that pinned it
// has completed).
func (pt *Inverted) Unpin(frame uint64) { pt.flags[frame] &^= flagPinned }

// FrameInfo reports a frame's mapping and state.
func (pt *Inverted) FrameInfo(frame uint64) (pid mem.PID, vpn uint64, valid, dirty, pinned bool) {
	f := pt.flags[frame]
	return pt.pids[frame], pt.vpns[frame], f&flagValid != 0, f&FlagDirty != 0, f&flagPinned != 0
}

// Hand returns the clock hand's current position, for invariant
// checking on clock-policy tables (the hand must always index a valid
// frame). Non-clock policies report zero; use CheckPolicyState for
// the policy-aware invariant.
func (pt *Inverted) Hand() uint64 {
	if c, ok := pt.pol.(clockHand); ok {
		return c.Hand()
	}
	return 0
}

// clockHand is implemented by the clock policy.
type clockHand interface {
	policy.ReplacementPolicy
	Hand() uint64
}

// PolicyName returns the replacement policy's display name.
func (pt *Inverted) PolicyName() string { return policy.Label(pt.pol.Name()) }

// CheckPolicyState validates the replacement policy's internal bounds
// — the policy-aware generalization of the clock-hand invariant.
func (pt *Inverted) CheckPolicyState() error { return pt.pol.CheckState(pt.cfg.Frames) }

// ClockSelect asks the replacement policy for a victim frame: a valid,
// unpinned frame chosen by the configured ranking (for the default
// clock policy, the §4.5 hand sweep that clears use bits as it goes).
// scanAddrs lists the entry addresses the selection examined (each is
// a read-modify-write in the fault handler trace). ok is false when
// every frame is pinned or invalid (pathological; callers treat it as
// "no victim"). The name predates the policy abstraction and is kept
// for the call sites and the paper's vocabulary.
//
// The observer sees one EvClockSweep observation per selection whose
// value is exactly the number of entries examined, so the histogram
// sum always equals the ClockScans counter.
func (pt *Inverted) ClockSelect(scanAddrs []uint64) (victim uint64, _ []uint64, ok bool) {
	before := len(scanAddrs)
	victim, scanAddrs, ok = pt.pol.SelectVictim(pt.view, scanAddrs)
	examined := uint64(len(scanAddrs) - before)
	pt.stats.ClockScans += examined
	if pt.obs != nil {
		pt.obs.Observe(metrics.EvClockSweep, examined)
	}
	if ok {
		policy.CountEviction(pt.pol.Name())
	}
	return victim, scanAddrs, ok
}
