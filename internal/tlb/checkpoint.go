package tlb

import "rampage/internal/checkpoint"

// EncodeState serializes the TLB's behavioral state: the entry columns,
// the replacement RNG and the counters. The hit-position filter is NOT
// serialized — it is a verified, behavior-invisible accelerator (see
// the filter field), so leaving it out keeps checkpoint bytes
// independent of which execution path (fused fast path or full lookup)
// produced the state.
func (t *TLB) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkTLB)
	e.U64s(t.keys)
	e.U64s(t.vpns)
	e.U64s(t.frames)
	e.U64(t.rng.State())
	e.U64(t.stats.Hits)
	e.U64(t.stats.Misses)
	e.U64(t.stats.Invalidations)
	e.U64(t.stats.Flushes)
}

// DecodeState restores state captured by EncodeState into the live
// columns. The filter is left as it is: every slot holds an entry index
// this TLB wrote (or the construction zero), so it is in range, and a
// probe verifies the slot against the restored columns before using
// it. frames is the frame count of the page table the TLB caches: an
// entry naming a frame at or past it fails the decode, since a hit on
// it would index past the table's per-frame columns.
func (t *TLB) DecodeState(d *checkpoint.Dec, frames uint64) {
	d.Marker(checkpoint.MarkTLB)
	d.U64sInto(t.keys)
	d.U64sInto(t.vpns)
	d.U64sInto(t.frames)
	if d.Err() == nil {
		for i, f := range t.frames {
			if f >= frames {
				d.Fail("tlb: entry %d maps frame %d of %d", i, f, frames)
				break
			}
		}
	}
	t.rng.SetState(d.U64())
	t.stats.Hits = d.U64()
	t.stats.Misses = d.U64()
	t.stats.Invalidations = d.U64()
	t.stats.Flushes = d.U64()
}
