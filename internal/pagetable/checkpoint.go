package pagetable

import (
	"encoding/binary"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

// entryStateBytes is the encoded size of one chained frame: its index
// (U32), vpn (U64), PID (U16) and flags (U8).
const entryStateBytes = 4 + 8 + 2 + 1

// EncodeState serializes the table's live state: the frames on its
// hash chains, the free-list head, the replacement-policy state and the
// counters. A chained frame is written as its index, vpn, PID and
// flags, each chain tail first, so DecodeState's head insertions
// rebuild every chain in the order the probe counts depend on. Nothing
// else is stored: an unchained frame is zero in every column, the
// anchors and chain links follow from the chained frames, and the
// free-list links are the construction order New derives from the
// configuration. Geometry (frame count, HAT size) is implied by the
// configuration too.
func (pt *Inverted) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkPageTable)
	var n uint32
	for _, f := range pt.hat {
		for ; f >= 0; f = pt.next[f] {
			n++
		}
	}
	e.U32(n)
	var chain []int32
	for _, f := range pt.hat {
		chain = chain[:0]
		for ; f >= 0; f = pt.next[f] {
			chain = append(chain, f)
		}
		for i := len(chain) - 1; i >= 0; i-- {
			f := chain[i]
			e.U32(uint32(f))
			e.U64(pt.vpns[f])
			e.U16(uint16(pt.pids[f]))
			e.U8(pt.flags[f])
		}
	}
	e.I32(pt.freeHead)
	pt.pol.EncodeState(e)
	e.U64(pt.stats.Lookups)
	e.U64(pt.stats.Hits)
	e.U64(pt.stats.Probes)
	e.U64(pt.stats.ClockScans)
	e.U64(pt.stats.Maps)
	e.U64(pt.stats.Unmaps)
}

// DecodeState restores state captured by EncodeState into a table of
// the same configuration. It first empties the table's chains (a
// freshly built one holds only the pinned reservation), then links
// each decoded frame at the head of its bucket, hash(pid, vpn). A chain
// built this way cannot loop, merge or leave its bucket, so each frame
// needs only its own checks, and any failure is a decode error:
// checkpoints are read back from disk, and a forged one must fail here
// rather than send a later lookup out of the table. A frame must be
// inside the table, listed once and mapping a page; the free-list head
// must end the list (-1) or name an unchained frame.
func (pt *Inverted) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkPageTable)
	n := d.Count(entryStateBytes)
	raw := d.Take(int(n) * entryStateBytes)
	if d.Err() != nil {
		return
	}
	pt.unchainAll()
	for i := 0; i < int(n); i++ {
		e := raw[i*entryStateBytes:]
		f := binary.LittleEndian.Uint32(e)
		vpn := binary.LittleEndian.Uint64(e[4:])
		pid := mem.PID(binary.LittleEndian.Uint16(e[12:]))
		fl := e[14]
		switch {
		case uint64(f) >= pt.cfg.Frames:
			d.Fail("pagetable: frame %d of %d", f, pt.cfg.Frames)
			return
		case fl&flagValid == 0:
			d.Fail("pagetable: frame %d is chained but maps no page", f)
			return
		case pt.flags[f]&flagValid != 0:
			d.Fail("pagetable: frame %d is listed twice", f)
			return
		}
		pt.vpns[f], pt.pids[f], pt.flags[f] = vpn, pid, fl
		b := pt.hash(pid, vpn)
		pt.next[f] = pt.hat[b]
		pt.hat[b] = int32(f)
	}
	head := d.I32()
	if d.Err() == nil && head != -1 && (head < 0 || uint64(head) >= pt.cfg.Frames || pt.flags[head]&flagValid != 0) {
		d.Fail("pagetable: free list head %d is not a free frame of %d", head, pt.cfg.Frames)
		return
	}
	pt.freeHead = head
	pt.pol.DecodeState(d)
	pt.stats.Lookups = d.U64()
	pt.stats.Hits = d.U64()
	pt.stats.Probes = d.U64()
	pt.stats.ClockScans = d.U64()
	pt.stats.Maps = d.U64()
	pt.stats.Unmaps = d.U64()
}

// unchainAll empties every hash chain, clearing the chained frames'
// entries. Every frame that maps a page is chained, so the table is
// then as New leaves it, free list aside. The walk reads every anchor
// but touches only the chained frames' entries.
func (pt *Inverted) unchainAll() {
	for b, f := range pt.hat {
		if f < 0 {
			continue
		}
		for ; f >= 0; f = pt.next[f] {
			pt.vpns[f], pt.pids[f], pt.flags[f] = 0, 0, 0
		}
		pt.hat[b] = -1
	}
}
