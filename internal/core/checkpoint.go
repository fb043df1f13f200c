package core

import (
	"encoding/binary"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

// seenStateBytes is the encoded size of one first-touch page: its PID
// (U16) and vpn (U64).
const seenStateBytes = 2 + 8

// EncodeState serializes the SRAM main memory's complete mutable state:
// the inverted page table, the TLB, the pages faulted in (in
// first-touch order, which fixes their DRAM backing addresses; see
// pageIndex), the prefetch bits and the counters. Geometry (frame
// count, page size, OS reservation) comes from the configuration and
// is validated on decode, not serialized.
func (m *Memory) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkCore)
	m.pt.EncodeState(e)
	m.tlb.EncodeState(e)
	e.U32(uint32(len(m.seen.pages)))
	for _, k := range m.seen.pages {
		e.U16(uint16(k.pid))
		e.U64(k.vpn)
	}
	e.Bools(m.prefetched)
	e.U64(m.stats.Translations)
	e.U64(m.stats.TLBMisses)
	e.U64(m.stats.PageFaults)
	e.U64(m.stats.FirstTouches)
	e.U64(m.stats.Writebacks)
	e.U64(m.stats.Prefetches)
	e.U64(m.stats.PrefetchHits)
	e.U64(m.stats.PrefetchWasted)
}

// DecodeState restores state captured by EncodeState into a memory
// built with the identical configuration. The first-touch pages are
// copied in order; their index is built by the next page fault, which
// fails on a page listed twice (see pageIndex).
func (m *Memory) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkCore)
	m.pt.DecodeState(d)
	m.tlb.DecodeState(d, m.frames)
	n := d.Count(seenStateBytes)
	raw := d.Take(int(n) * seenStateBytes)
	if d.Err() != nil {
		return
	}
	pages := make([]seenKey, n)
	for i := range pages {
		e := raw[i*seenStateBytes:]
		pages[i] = seenKey{pid: mem.PID(binary.LittleEndian.Uint16(e)), vpn: binary.LittleEndian.Uint64(e[2:])}
	}
	m.seen = pageIndex{pages: pages}
	d.BoolsInto(m.prefetched)
	m.stats.Translations = d.U64()
	m.stats.TLBMisses = d.U64()
	m.stats.PageFaults = d.U64()
	m.stats.FirstTouches = d.U64()
	m.stats.Writebacks = d.U64()
	m.stats.Prefetches = d.U64()
	m.stats.PrefetchHits = d.U64()
	m.stats.PrefetchWasted = d.U64()
}
