package cache

import "rampage/internal/checkpoint"

// EncodeState serializes the cache's complete mutable state: the tag
// store columns, the LRU clock, the replacement RNG and the event
// counters. Configuration is not serialized — state is decoded in
// place into an identically configured cache.
//
// Direct-mapped caches omit the LRU clock and per-line use stamps:
// victim choice never consults them when assoc == 1, and the fused
// DMHot fast path legitimately skips updating them, so their live
// values depend on which execution path ran. Serializing them would
// make checkpoint bytes differ between the batched and per-reference
// paths even though the machines are behaviorally identical, and would
// spend 8 bytes a line on state nothing reads.
func (c *Cache) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkCache)
	e.U64s(c.tags)
	e.Bools(c.valid)
	e.Bools(c.dirty)
	if c.assoc != 1 {
		e.U64s(c.used)
		e.U64(c.clock)
	}
	e.U64(c.rng.State())
	e.U64(c.stats.Hits)
	e.U64(c.stats.Misses)
	e.U64(c.stats.Evictions)
	e.U64(c.stats.Writebacks)
}

// DecodeState restores state captured by EncodeState into the live
// columns. Geometry mismatches are decode errors. A direct-mapped
// cache's clock restarts at zero, and its use stamps, which nothing
// reads, are left as they are.
func (c *Cache) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkCache)
	d.U64sInto(c.tags)
	d.BoolsInto(c.valid)
	d.BoolsInto(c.dirty)
	if c.assoc == 1 {
		c.clock = 0
	} else {
		d.U64sInto(c.used)
		c.clock = d.U64()
	}
	c.rng.SetState(d.U64())
	c.stats.Hits = d.U64()
	c.stats.Misses = d.U64()
	c.stats.Evictions = d.U64()
	c.stats.Writebacks = d.U64()
}

// EncodeState serializes the victim cache: the inner fully-associative
// buffer plus the victim-hit counter. The main cache is serialized by
// its owner.
func (vc *VictimCache) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkVictim)
	vc.victim.EncodeState(e)
	e.U64(vc.stats.VictimHits)
}

// DecodeState restores state captured by EncodeState.
func (vc *VictimCache) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkVictim)
	vc.victim.DecodeState(d)
	vc.stats.VictimHits = d.U64()
}
