package synth

import (
	"fmt"

	"rampage/internal/xrand"
)

// Pattern names a data access pattern within one memory region. The
// patterns cover the locality classes that distinguish the SPEC92 and
// utility programs of Table 2: dense array sweeps, strided sweeps,
// uniformly random scatter (hash tables), hot/cold skewed access
// (symbol tables), serialized pointer chasing (linked structures) and
// stack-frame access.
type Pattern uint8

const (
	// Sequential walks the region byte-block by byte-block with a fixed
	// element size, wrapping at the end — a dense array sweep.
	Sequential Pattern = iota
	// Strided walks the region with a configurable stride — a
	// column-major or blocked matrix sweep.
	Strided
	// Random touches uniformly random elements of the region — hash
	// table probing with no locality beyond the element.
	Random
	// HotCold touches a small hot subset of the region most of the time
	// and the remainder occasionally — skewed symbol-table access.
	HotCold
	// PointerChase jumps to a pseudo-random successor determined by the
	// current position, modeling linked-list traversal: successive
	// addresses are decorrelated but the walk revisits the same cycle
	// of elements.
	PointerChase
	// Stack accesses wander near a moving top-of-stack with small
	// offsets — call-frame locals.
	Stack
)

// String returns the pattern's name.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case HotCold:
		return "hotcold"
	case PointerChase:
		return "chase"
	case Stack:
		return "stack"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Region describes one data region of a synthetic program's address
// space and how it is accessed.
type Region struct {
	// Name labels the region in dumps ("weights", "hashtab", ...).
	Name string
	// Size is the region's extent in bytes. Scaled by Profile scaling.
	Size uint64
	// Weight is the relative probability that a data reference goes to
	// this region.
	Weight float64
	// Pattern selects the access pattern.
	Pattern Pattern
	// Stride is the step in bytes for Strided (ignored otherwise; a
	// zero stride defaults to Elem).
	Stride uint64
	// Elem is the element size in bytes (defaults to 8). Consecutive
	// Sequential accesses advance by Elem.
	Elem uint64
	// StoreFrac is the fraction of references to this region that are
	// stores.
	StoreFrac float64
	// HotFrac is, for HotCold, the fraction of the region that is hot
	// (default 1/16); HotProb is the probability an access goes to the
	// hot subset (default 0.9).
	HotFrac, HotProb float64
}

// regionState is the per-run cursor state for a region, with the
// region's draw constants.
type regionState struct {
	spec   Region
	base   uint64 // virtual base address
	size   uint64 // scaled size, aligned to elem
	elem   uint64
	stride uint64
	elems  uint64 // size / elem
	cursor uint64 // offset within region
	depth  uint64 // Stack: current depth in bytes

	// storeT and hotT are the thresholds (xrand.Threshold) of StoreFrac
	// and of HotCold's hot probability; hotElems is the hot subset's
	// size in elements.
	storeT, hotT, hotElems uint64
}

// stackPushT is the threshold of a Stack access pushing a frame.
var stackPushT = xrand.Threshold(0.5)

func newRegionState(spec Region, base, scaledSize uint64) regionState {
	elem := spec.Elem
	if elem == 0 {
		elem = 8
	}
	stride := spec.Stride
	if stride == 0 {
		stride = elem
	}
	size := scaledSize
	if size < 4*elem {
		size = 4 * elem
	}
	size = size - size%elem
	rs := regionState{spec: spec, base: base, size: size, elem: elem, stride: stride, elems: size / elem}
	rs.storeT = xrand.Threshold(spec.StoreFrac)
	if spec.Pattern == HotCold {
		hotFrac := spec.HotFrac
		if hotFrac == 0 {
			hotFrac = 1.0 / 16
		}
		hotProb := spec.HotProb
		if hotProb == 0 {
			hotProb = 0.93
		}
		rs.hotT = xrand.Threshold(hotProb)
		rs.hotElems = uint64(float64(rs.elems) * hotFrac)
		if rs.hotElems == 0 {
			rs.hotElems = 1
		}
	}
	return rs
}

// nextOffset advances the region cursor per its pattern and returns the
// offset of the next access within the region.
func (rs *regionState) nextOffset(r *xrand.RNG) uint64 {
	n := rs.elems
	switch rs.spec.Pattern {
	case Sequential:
		off := rs.cursor
		rs.cursor += rs.elem
		if rs.cursor >= rs.size {
			rs.cursor = 0
		}
		return off
	case Strided:
		off := rs.cursor
		rs.cursor += rs.stride
		if rs.cursor >= rs.size {
			// Start the next column: shift the origin by one element.
			rs.cursor = (rs.cursor + rs.elem) % rs.stride
		}
		return off
	case Random:
		return r.Uintn(n) * rs.elem
	case HotCold:
		if r.Below(rs.hotT) {
			return r.Uintn(rs.hotElems) * rs.elem
		}
		return r.Uintn(n) * rs.elem
	case PointerChase:
		// The successor of element i is a fixed pseudo-random function
		// of i, so the walk follows the same linked structure each lap.
		// Real linked structures have allocation locality -- nodes
		// allocated together link to one another -- so 7/8 of links
		// stay within a 64-element neighbourhood and 1/8 jump anywhere.
		cur := rs.cursor / rs.elem
		h := xrand.Mix(cur*0x9E3779B97F4A7C15 + 0x1234567)
		var next uint64
		if h%8 != 0 && n > 64 {
			next = (cur &^ 63) + (h>>16)%64
			if next >= n {
				next = h % n
			}
		} else {
			next = (h >> 16) % n
		}
		rs.cursor = next * rs.elem
		return cur * rs.elem
	case Stack:
		// Push/pop with small biased random walk; access near the top.
		frame := rs.elem * 8
		if r.Below(stackPushT) && rs.depth+frame < rs.size {
			rs.depth += frame
		} else if rs.depth >= frame {
			rs.depth -= frame
		}
		off := rs.depth + r.Uintn(8)*rs.elem
		if off >= rs.size {
			off = rs.size - rs.elem
		}
		return off
	default:
		return 0
	}
}
