// Package cache implements the hardware cache models of the simulated
// systems: the split direct-mapped L1 caches common to every
// configuration (§4.3), the baseline direct-mapped L2 (§4.4) and the
// 2-way set-associative L2 with random replacement (§4.7). A generic
// N-way set-associative write-back, write-allocate cache covers all of
// them; a small fully-associative victim cache (the §3.2 alternative)
// is provided as an extension for ablation experiments.
//
// The cache stores no data — it is a tag store. Timing lives in the
// simulator; this package answers only "hit or miss, and what was
// displaced". The tag store is columnar (parallel tags/valid/dirty/
// used arrays rather than an array of line structs) so the simulator's
// fused direct-mapped fast path (see DMHot) resolves a hit with a
// single tag-word load.
package cache

import (
	"fmt"

	"rampage/internal/mem"
	"rampage/internal/xrand"
)

// Policy selects the replacement policy within a set.
type Policy uint8

const (
	// LRU replaces the least-recently-used way.
	LRU Policy = iota
	// RandomRepl replaces a uniformly random way, as in the paper's
	// 2-way associative L2 (§4.7).
	RandomRepl
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case RandomRepl:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config describes a cache. Direct-mapped is Assoc == 1;
// fully-associative is Assoc == number of blocks.
type Config struct {
	// Name labels the cache in reports ("L1i", "L2", ...).
	Name string
	// SizeBytes is the total capacity; BlockBytes the line size. Both
	// must be powers of two with SizeBytes >= BlockBytes*Assoc.
	SizeBytes  uint64
	BlockBytes uint64
	// Assoc is the number of ways per set (>= 1).
	Assoc int
	// Policy selects replacement within a set; direct-mapped caches
	// ignore it.
	Policy Policy
	// Seed feeds the deterministic RNG for RandomRepl.
	Seed uint64
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if c.BlockBytes == 0 || !mem.IsPow2(c.BlockBytes) {
		return fmt.Errorf("cache %s: block size %d is not a power of two", c.Name, c.BlockBytes)
	}
	if c.SizeBytes == 0 || !mem.IsPow2(c.SizeBytes) {
		return fmt.Errorf("cache %s: size %d is not a power of two", c.Name, c.SizeBytes)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache %s: associativity %d < 1", c.Name, c.Assoc)
	}
	blocks := c.SizeBytes / c.BlockBytes
	if blocks == 0 || uint64(c.Assoc) > blocks {
		return fmt.Errorf("cache %s: %d ways exceed %d blocks", c.Name, c.Assoc, blocks)
	}
	sets := blocks / uint64(c.Assoc)
	if !mem.IsPow2(sets) {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets the configuration implies.
func (c Config) Sets() uint64 { return c.SizeBytes / c.BlockBytes / uint64(c.Assoc) }

// TagBits estimates the per-line address-tag width for a 32-bit
// physical address, used to size the RAMpage SRAM bonus (§4.5: the
// SRAM main memory gets the capacity a cache would spend on tags).
func (c Config) TagBits() uint {
	const physBits = 32
	return physBits - mem.Log2(c.Sets()) - mem.Log2(c.BlockBytes)
}

// Stats counts cache events since construction.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64 // valid lines displaced by fills
	Writebacks uint64 // dirty lines displaced or invalidated
}

// MissRate returns misses / (hits+misses), or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Result reports the outcome of one access.
type Result struct {
	// Hit is true when the block was present.
	Hit bool
	// Evicted is true when a valid block was displaced to make room.
	Evicted bool
	// WritebackAddr is the block-aligned address of the displaced block
	// when it was dirty; valid only when EvictedDirty.
	WritebackAddr mem.PAddr
	// EvictedAddr is the block-aligned address of any displaced block;
	// valid only when Evicted. The simulator uses it to maintain
	// inclusion (an L2 eviction invalidates the block in L1).
	EvictedAddr  mem.PAddr
	EvictedDirty bool
}

// TagInvalid fills the tag column of invalid lines so the direct-
// mapped fast path (DMHot) can test presence with one comparison. The
// valid column stays authoritative: a real block whose tag happens to
// equal TagInvalid (only possible when tag+set+block bits fill all 64
// address bits) is still tracked exactly by the full paths, and the
// fast path explicitly rejects sentinel-valued probe tags.
const TagInvalid = ^uint64(0)

// Cache is an N-way set-associative tag store. It is not safe for
// concurrent use. Lines are stored columnar, set-major within each
// column: way w of set s is index s*assoc+w.
type Cache struct {
	cfg        Config
	tags       []uint64 // TagInvalid when the line is invalid
	valid      []bool
	dirty      []bool
	used       []uint64 // LRU timestamps
	assoc      int
	setMask    uint64
	setShift   uint // log2(set count), for tag extraction
	blockShift uint
	clock      uint64
	rng        *xrand.RNG
	stats      Stats
}

// New builds a cache from a validated configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	lines := sets * uint64(cfg.Assoc)
	tags := make([]uint64, lines)
	for i := range tags {
		tags[i] = TagInvalid
	}
	return &Cache{
		cfg:        cfg,
		tags:       tags,
		valid:      make([]bool, lines),
		dirty:      make([]bool, lines),
		used:       make([]uint64, lines),
		assoc:      cfg.Assoc,
		setMask:    sets - 1,
		setShift:   mem.Log2(sets),
		blockShift: mem.Log2(cfg.BlockBytes),
		rng:        xrand.New(cfg.Seed ^ 0xCAC4E),
	}, nil
}

// MustNew is New for configurations known to be valid; it panics on
// error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr mem.PAddr) mem.PAddr {
	return addr &^ mem.PAddr(c.cfg.BlockBytes-1)
}

// DMHot is a flattened view of a direct-mapped cache for the
// simulator's fused TLB→L1 fast path. The slices alias the cache's
// live columns — never reallocated after New — so a view captured once
// stays current. A fast-path probe is
//
//	block := pa >> BlockShift
//	set, tag := block&SetMask, block>>SetShift
//	hit := Tags[set] == tag && tag != TagInvalid
//
// On a hit the caller sets Dirty[set] for a write and accumulates
// Stats.Hits batch-locally; replacement clock/LRU state is skipped,
// which is invisible for a direct-mapped cache (the victim choice
// never consults it). On a miss the caller completes the reference
// with Access. A sentinel-valued probe tag is rejected as a miss, so a
// caller whose addresses can produce one must also probe with Hit,
// which handles every case exactly.
type DMHot struct {
	Tags       []uint64
	Dirty      []bool
	SetMask    uint64
	SetShift   uint
	BlockShift uint
	Stats      *Stats
}

// DirectHot returns the fast-path view, or ok == false when the cache
// is not direct-mapped.
func (c *Cache) DirectHot() (DMHot, bool) {
	if c.assoc != 1 {
		return DMHot{}, false
	}
	return DMHot{
		Tags:       c.tags,
		Dirty:      c.dirty,
		SetMask:    c.setMask,
		SetShift:   c.setShift,
		BlockShift: c.blockShift,
		Stats:      &c.stats,
	}, true
}

func (c *Cache) index(addr mem.PAddr) (set uint64, tag uint64) {
	block := uint64(addr) >> c.blockShift
	return block & c.setMask, block >> c.setShift
}

// Access looks up addr, allocating the block on a miss (write-allocate)
// and marking it dirty on a write. The returned Result describes any
// displacement so the caller can time write-backs and maintain
// inclusion with upper levels.
func (c *Cache) Access(addr mem.PAddr, write bool) Result {
	set, tag := c.index(addr)
	base := set * uint64(c.assoc)
	c.clock++
	for i := base; i < base+uint64(c.assoc); i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.stats.Hits++
			c.used[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	victim := base + uint64(c.pickVictim(base))
	res := Result{}
	if c.valid[victim] {
		c.stats.Evictions++
		res.Evicted = true
		res.EvictedAddr = c.rebuild(set, c.tags[victim])
		if c.dirty[victim] {
			c.stats.Writebacks++
			res.EvictedDirty = true
			res.WritebackAddr = res.EvictedAddr
		}
	}
	c.valid[victim] = true
	c.dirty[victim] = write
	c.tags[victim] = tag
	c.used[victim] = c.clock
	return res
}

// Hit is the hit half of Access, split out for the simulator's batched
// fast path. When addr's block is present it updates clock, LRU and
// dirty state exactly as Access would and reports true. When absent it
// touches nothing — the caller completes the miss with Access, and the
// combined state and statistics are identical to a single Access call.
func (c *Cache) Hit(addr mem.PAddr, write bool) bool {
	block := uint64(addr) >> c.blockShift
	set, tag := block&c.setMask, block>>c.setShift
	if c.assoc == 1 { // direct-mapped: one candidate line
		if c.valid[set] && c.tags[set] == tag {
			c.clock++
			c.stats.Hits++
			c.used[set] = c.clock
			if write {
				c.dirty[set] = true
			}
			return true
		}
		return false
	}
	base := set * uint64(c.assoc)
	for i := base; i < base+uint64(c.assoc); i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.clock++
			c.stats.Hits++
			c.used[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return true
		}
	}
	return false
}

// Probe reports whether addr is present without updating replacement
// state or statistics.
func (c *Cache) Probe(addr mem.PAddr) bool {
	set, tag := c.index(addr)
	base := set * uint64(c.assoc)
	for i := base; i < base+uint64(c.assoc); i++ {
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// pickVictim chooses the way to replace in a full set (given the set's
// base line index), or the first invalid way if one exists.
func (c *Cache) pickVictim(base uint64) int {
	for w := 0; w < c.assoc; w++ {
		if !c.valid[base+uint64(w)] {
			return w
		}
	}
	if c.assoc == 1 {
		return 0
	}
	switch c.cfg.Policy {
	case RandomRepl:
		return c.rng.Intn(c.assoc)
	default: // LRU
		best := 0
		for w := 1; w < c.assoc; w++ {
			if c.used[base+uint64(w)] < c.used[base+uint64(best)] {
				best = w
			}
		}
		return best
	}
}

// rebuild reconstructs a block-aligned address from its set and tag.
func (c *Cache) rebuild(set, tag uint64) mem.PAddr {
	return mem.PAddr((tag<<c.setShift | set) << c.blockShift)
}

// clearLine invalidates one line, restoring the tag sentinel the
// direct-mapped fast path relies on.
func (c *Cache) clearLine(i uint64) {
	c.valid[i] = false
	c.dirty[i] = false
	c.tags[i] = TagInvalid
	c.used[i] = 0
}

// ForEachValid invokes fn for every resident block with its
// block-aligned address and dirtiness, without touching replacement
// state or statistics. The invariant checker uses it to verify
// inclusion and residency properties.
func (c *Cache) ForEachValid(fn func(addr mem.PAddr, dirty bool)) {
	sets := c.setMask + 1
	for set := uint64(0); set < sets; set++ {
		base := set * uint64(c.assoc)
		for i := base; i < base+uint64(c.assoc); i++ {
			if c.valid[i] {
				fn(c.rebuild(set, c.tags[i]), c.dirty[i])
			}
		}
	}
}

// Invalidate removes the block containing addr if present, returning
// whether it was present and whether it was dirty (the caller times the
// write-back). Inclusion maintenance and RAMpage page replacement use
// this.
func (c *Cache) Invalidate(addr mem.PAddr) (present, dirty bool) {
	set, tag := c.index(addr)
	base := set * uint64(c.assoc)
	for i := base; i < base+uint64(c.assoc); i++ {
		if c.valid[i] && c.tags[i] == tag {
			dirty = c.dirty[i]
			if dirty {
				c.stats.Writebacks++
			}
			c.clearLine(i)
			return true, dirty
		}
	}
	return false, false
}

// InvalidateRange removes every block overlapping [addr, addr+size),
// invoking fn for each block that was present (with its dirtiness).
// RAMpage uses it to purge L1 when an SRAM page is replaced.
func (c *Cache) InvalidateRange(addr mem.PAddr, size uint64, fn func(block mem.PAddr, dirty bool)) {
	start := c.BlockAddr(addr)
	end := uint64(addr) + size
	for b := uint64(start); b < end; b += c.cfg.BlockBytes {
		if present, dirty := c.Invalidate(mem.PAddr(b)); present && fn != nil {
			fn(mem.PAddr(b), dirty)
		}
	}
}

// Flush invalidates the entire cache, invoking fn for each dirty block.
func (c *Cache) Flush(fn func(block mem.PAddr, dirty bool)) {
	sets := c.setMask + 1
	for set := uint64(0); set < sets; set++ {
		base := set * uint64(c.assoc)
		for i := base; i < base+uint64(c.assoc); i++ {
			if c.valid[i] {
				addr := c.rebuild(set, c.tags[i])
				dirty := c.dirty[i]
				if dirty {
					c.stats.Writebacks++
				}
				c.clearLine(i)
				if fn != nil {
					fn(addr, dirty)
				}
			}
		}
	}
}
