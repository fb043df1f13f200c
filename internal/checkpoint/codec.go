// Package checkpoint provides warm-state checkpointing for the
// simulator: a versioned, deterministic binary codec for machine and
// scheduler state, a content-addressed checkpoint container, and the
// store that keeps checkpoints as one namespace of internal/cas
// (memory, optionally written through to a directory that survives
// restarts) and answers dominance lookups over them.
//
// The motivation is §4.2 of the paper: warming the SRAM main memory
// alone costs 25–50 M references, and every grid cell of a sweep used
// to re-pay that warm-up from a cold machine. Cells that share a
// warm-up prefix (same seed, workload, capacities and quantum,
// differing only in post-warm-up knobs such as the reference budget)
// can instead restore one checkpoint. Correctness is absolute: a
// restored run is bit-identical to a from-scratch run, enforced by the
// golden suite and the reference-oracle lockstep.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FormatVersion is the on-disk format version. It is baked into the
// encoded header and the content-address prefix, so any incompatible
// codec change invalidates old checkpoints instead of misdecoding them.
// Version 2 stores only live state: the page table's chained frames,
// the SRAM backing map's pages in first-touch order, no use stamps for
// direct-mapped caches, and flag columns eight to a byte.
const FormatVersion = 2

// magic identifies a checkpoint byte stream.
const magic = 0x52504B31 // "RPK1"

// Enc is an append-only little-endian encoder. Encoding is
// deterministic: the same state always produces the same bytes.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder with some initial capacity.
func NewEnc() *Enc { return &Enc{buf: make([]byte, 0, 4096)} }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// I32 appends an int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Marker appends a component sentinel. Decoders verify markers, so a
// misaligned or mismatched stream fails loudly at the component
// boundary instead of silently misdecoding the rest.
func (e *Enc) Marker(m uint32) { e.U32(m) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed []uint64.
func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// I64s appends a length-prefixed []int64.
func (e *Enc) I64s(v []int64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I64(x)
	}
}

// I32s appends a length-prefixed []int32.
func (e *Enc) I32s(v []int32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I32(x)
	}
}

// U8s appends a length-prefixed []uint8.
func (e *Enc) U8s(v []uint8) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Bools appends a length-prefixed []bool, eight to a byte, low bit
// first; the unused high bits of the last byte are zero.
func (e *Enc) Bools(v []bool) {
	e.U32(uint32(len(v)))
	for i := 0; i < len(v); i += 8 {
		var b byte
		for j, x := range v[i:min(i+8, len(v))] {
			if x {
				b |= 1 << j
			}
		}
		e.U8(b)
	}
}

// Dec is a bounds-checked little-endian decoder with a sticky error:
// after the first failure every further read returns zero values and
// the error is reported by Err. Decoders never panic on truncated or
// garbage input.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over b. The slice is not copied.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decoding error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Fail records an error (the first one sticks).
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// need reports whether n more bytes are available, recording an error
// if not.
func (d *Dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf)-d.off < n {
		d.Fail("truncated input: need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return false
	}
	return true
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads a boolean, rejecting non-canonical encodings.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail("bad bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// I32 reads an int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Marker consumes a component sentinel and fails unless it matches.
func (d *Dec) Marker(want uint32) {
	at := d.off
	got := d.U32()
	if d.err == nil && got != want {
		d.Fail("bad marker at offset %d: got %#x, want %#x", at, got, want)
	}
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := int(d.U32())
	if d.err != nil || !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Take consumes the next n bytes and returns them, aliasing the input,
// or nil when fewer remain. A decoder reads a section of fixed-size
// entries with one Take after its Count, then decodes the entries
// without a bounds check each.
func (d *Dec) Take(n int) []byte {
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Count reads the entry count of a variable-length section whose
// entries take entryBytes each, and fails unless the unread bytes can
// hold that many entries: a forged count must not make a decoder size
// a map or slice beyond what the payload carries.
func (d *Dec) Count(entryBytes int) uint32 {
	at := d.off
	n := d.U32()
	if d.err == nil && uint64(n)*uint64(entryBytes) > uint64(d.Remaining()) {
		d.Fail("count %d at offset %d needs %d bytes, %d remain", n, at, uint64(n)*uint64(entryBytes), d.Remaining())
		return 0
	}
	return n
}

// length reads a slice length prefix and verifies it matches want —
// component state is decoded in place into live arrays, so a geometry
// mismatch is a configuration error, not a resize.
func (d *Dec) length(want int) bool {
	at := d.off
	n := int(d.U32())
	if d.err != nil {
		return false
	}
	if n != want {
		d.Fail("length mismatch at offset %d: encoded %d, live %d", at, n, want)
		return false
	}
	return true
}

// U64sInto decodes a []uint64 into dst, requiring equal length.
func (d *Dec) U64sInto(dst []uint64) {
	if !d.length(len(dst)) || !d.need(8*len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
	}
}

// I64sInto decodes a []int64 into dst, requiring equal length.
func (d *Dec) I64sInto(dst []int64) {
	if !d.length(len(dst)) || !d.need(8*len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
}

// I32sInto decodes a []int32 into dst, requiring equal length.
func (d *Dec) I32sInto(dst []int32) {
	if !d.length(len(dst)) || !d.need(4*len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(d.buf[d.off:]))
		d.off += 4
	}
}

// U8sInto decodes a []uint8 into dst, requiring equal length.
func (d *Dec) U8sInto(dst []uint8) {
	if !d.length(len(dst)) || !d.need(len(dst)) {
		return
	}
	copy(dst, d.buf[d.off:d.off+len(dst)])
	d.off += len(dst)
}

// BoolsInto decodes a []bool into dst, requiring equal length and
// rejecting a set bit past the last flag, so a decode accepts exactly
// the bytes Bools writes.
func (d *Dec) BoolsInto(dst []bool) {
	n := (len(dst) + 7) / 8
	if !d.length(len(dst)) || !d.need(n) {
		return
	}
	packed := d.buf[d.off : d.off+n]
	if pad := uint(len(dst) % 8); pad != 0 && packed[n-1]>>pad != 0 {
		d.Fail("bad bool byte %#x at offset %d: bits set past flag %d", packed[n-1], d.off+n-1, len(dst))
		return
	}
	for i, b := range packed {
		flags := dst[8*i : min(8*i+8, len(dst))]
		for j := range flags {
			flags[j] = b&(1<<j) != 0
		}
	}
	d.off += n
}
