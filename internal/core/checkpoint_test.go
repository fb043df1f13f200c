package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

// TestDecodeStateRejectsOversizedSeenCount forges the first-touch
// map's entry count in an encoded memory. The decoder sizes the map
// from that count, so a count the remaining bytes cannot hold must
// fail the decode before anything is allocated: a map sized for 10^8
// or 2^32-1 entries ends the process with a fatal out-of-memory error,
// which no recover catches.
func TestDecodeStateRejectsOversizedSeenCount(t *testing.T) {
	m := tiny(t)
	for i := uint64(0); i < 4; i++ {
		if _, err := m.Translate(1, mem.VAddr(0x100000+i*4096), false); err != nil {
			t.Fatal(err)
		}
	}
	e := checkpoint.NewEnc()
	m.EncodeState(e)
	payload := e.Bytes()
	// The count follows the marker, the page table and the TLB.
	head := checkpoint.NewEnc()
	head.Marker(checkpoint.MarkCore)
	m.pt.EncodeState(head)
	m.tlb.EncodeState(head)
	at := len(head.Bytes())
	if got := binary.LittleEndian.Uint32(payload[at:]); got == 0 || got != uint32(len(m.seen)) {
		t.Fatalf("count at offset %d = %d, want the %d pages seen", at, got, len(m.seen))
	}
	fits := uint32((len(payload) - at - 4) / 24)
	for _, n := range []uint32{1e8, 1<<32 - 1, fits + 1} {
		forged := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(forged[at:], n)
		d := checkpoint.NewDec(forged)
		tiny(t).DecodeState(d)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), "count") {
			t.Errorf("seen count %d: decode error = %v, want a count error", n, err)
		}
	}
	d := checkpoint.NewDec(payload)
	tiny(t).DecodeState(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Errorf("genuine payload: decode error %v, %d bytes left", err, d.Remaining())
	}
}
