package pagetable

import (
	"fmt"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

// EncodeState serializes the table's complete mutable state: the
// columnar frame entries, hash anchors, free list, replacement-policy
// state and counters. Geometry (frame count, HAT size) is implied by
// the configuration and is validated, not serialized. The clock
// policy's state is exactly the one U64 hand this slot has always
// held, so pre-policy checkpoints stay valid.
func (pt *Inverted) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkPageTable)
	e.U64s(pt.vpns)
	pids := make([]uint64, len(pt.pids))
	for i, p := range pt.pids {
		pids[i] = uint64(p)
	}
	e.U64s(pids)
	e.U8s(pt.flags)
	e.I32s(pt.next)
	e.I32s(pt.hat)
	e.I32(pt.freeHead)
	e.I32s(pt.freeNext)
	pt.pol.EncodeState(e)
	e.U64(pt.stats.Lookups)
	e.U64(pt.stats.Hits)
	e.U64(pt.stats.Probes)
	e.U64(pt.stats.ClockScans)
	e.U64(pt.stats.Maps)
	e.U64(pt.stats.Unmaps)
}

// DecodeState restores state captured by EncodeState into the live
// columns. Geometry mismatches are decode errors, and so are links a
// walk could not follow (see checkLinks): checkpoints are read back
// from disk, so a forged one must fail here rather than send the
// first lookup out of the table or around a loop.
func (pt *Inverted) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkPageTable)
	d.U64sInto(pt.vpns)
	pids := make([]uint64, len(pt.pids))
	d.U64sInto(pids)
	if d.Err() == nil {
		for i, p := range pids {
			pt.pids[i] = mem.PID(p)
		}
	}
	d.U8sInto(pt.flags)
	d.I32sInto(pt.next)
	d.I32sInto(pt.hat)
	pt.freeHead = d.I32()
	d.I32sInto(pt.freeNext)
	if d.Err() == nil {
		if err := pt.checkLinks(); err != nil {
			d.Fail("pagetable: %v", err)
		}
	}
	pt.pol.DecodeState(d)
	pt.stats.Lookups = d.U64()
	pt.stats.Hits = d.U64()
	pt.stats.Probes = d.U64()
	pt.stats.ClockScans = d.U64()
	pt.stats.Maps = d.U64()
	pt.stats.Unmaps = d.U64()
}

// checkLinks validates the hash chains, the links Lookup and Unmap
// follow: every anchor and chain link indexes a frame or ends its chain
// (-1), every chained frame maps a page, and no frame is reached twice,
// so no chain loops or merges into another. Links of unchained frames
// are never followed (Map overwrites them), so they are not checked.
// The table keeps its chains this way as it runs: Map refuses a frame
// that maps a page, which every chained frame does, and Unmap fails on
// a mapped frame missing from its hash chain instead of leaving it
// linked. The free list is not walked here, since a walk costs a cache
// miss a frame: AllocFree and FreeFrames stop at a link past the table,
// and Map refuses a free frame that is also chained.
func (pt *Inverted) checkLinks() error {
	linked := make([]bool, len(pt.next))
	for b, f := range pt.hat {
		for ; f != -1; f = pt.next[f] {
			if uint32(f) >= uint32(len(linked)) {
				return fmt.Errorf("bucket %d links to frame %d of %d", b, f, len(linked))
			}
			if linked[f] {
				return fmt.Errorf("frame %d is linked twice (bucket %d)", f, b)
			}
			if pt.flags[f]&flagValid == 0 {
				return fmt.Errorf("frame %d is chained in bucket %d but maps no page", f, b)
			}
			linked[f] = true
		}
	}
	return nil
}
