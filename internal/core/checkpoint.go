package core

import (
	"sort"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

// EncodeState serializes the SRAM main memory's complete mutable state:
// the inverted page table, the TLB, the DRAM backing map, the
// allocation watermark, the prefetch bits and the counters. Geometry
// (frame count, page size, OS reservation) comes from the configuration
// and is validated on decode, not serialized. The seen map is emitted
// in sorted (pid, vpn) order so encoding is deterministic.
func (m *Memory) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkCore)
	m.pt.EncodeState(e)
	m.tlb.EncodeState(e)
	keys := make([]seenKey, 0, len(m.seen))
	for k := range m.seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].vpn < keys[j].vpn
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.U64(uint64(k.pid))
		e.U64(k.vpn)
		e.U64(m.seen[k])
	}
	e.U64(m.dramNext)
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
// built with the identical configuration.
func (m *Memory) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkCore)
	m.pt.DecodeState(d)
	m.tlb.DecodeState(d, m.frames)
	n := d.Count(24) // pid, vpn and count: three U64s an entry
	seen := make(map[seenKey]uint64, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		pid := mem.PID(d.U64())
		vpn := d.U64()
		seen[seenKey{pid, vpn}] = d.U64()
	}
	if d.Err() == nil {
		m.seen = seen
	}
	m.dramNext = d.U64()
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
