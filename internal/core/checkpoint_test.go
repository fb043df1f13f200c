package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

// touched returns a tiny memory that has faulted in n pages of process
// 1 and then pages of process 2, enough to replace pages once the user
// frames fill, so the first-touch order and the backing addresses carry
// state a running memory leaves behind.
func touched(t *testing.T, n uint64) *Memory {
	t.Helper()
	m := tiny(t)
	for i := uint64(0); i < n; i++ {
		if _, err := m.Translate(1, mem.VAddr(0x100000+i*4096), i%3 == 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Translate(2, mem.VAddr(0x100000+(n-i)*4096), false); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// seenAt returns the offset of the first-touch page count in an
// encoded memory: it follows the marker, the page table and the TLB.
func seenAt(m *Memory) int {
	head := checkpoint.NewEnc()
	head.Marker(checkpoint.MarkCore)
	m.pt.EncodeState(head)
	m.tlb.EncodeState(head)
	return len(head.Bytes())
}

func encodeMemory(m *Memory) []byte {
	e := checkpoint.NewEnc()
	m.EncodeState(e)
	return e.Bytes()
}

// TestCheckpointFirstTouchRoundTrip pins the first-touch encoding: a
// memory decoded from another's state re-encodes to the same bytes and
// from then on faults exactly as the original does, DRAM backing
// addresses of the faulting and the replaced pages included, although
// the state stores no address.
func TestCheckpointFirstTouchRoundTrip(t *testing.T) {
	orig := touched(t, 20)
	state := encodeMemory(orig)
	restored := tiny(t)
	d := checkpoint.NewDec(state)
	restored.DecodeState(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, d.Remaining())
	}
	if again := encodeMemory(restored); !bytes.Equal(again, state) {
		t.Fatal("the decoded memory re-encodes to different bytes")
	}
	faults := 0
	for i := uint64(0); i < 60; i++ {
		pid, va := mem.PID(1+i%2), mem.VAddr(0x100000+(i*7%40)*4096)
		want, werr := orig.Translate(pid, va, false)
		var wf Fault
		if want.Fault != nil {
			wf = *want.Fault
			wf.ScanAddrs, wf.UpdateAddrs = nil, nil
		}
		got, gerr := restored.Translate(pid, va, false)
		var gf Fault
		if got.Fault != nil {
			gf = *got.Fault
			gf.ScanAddrs, gf.UpdateAddrs = nil, nil
			faults++
		}
		if werr != nil || gerr != nil || got.Addr != want.Addr || !reflect.DeepEqual(gf, wf) {
			t.Fatalf("translation %d: restored (%#x, %+v, %v), original (%#x, %+v, %v)", i, got.Addr, gf, gerr, want.Addr, wf, werr)
		}
	}
	if faults == 0 {
		t.Error("no translation faulted after the restore; the test shows nothing")
	}
}

// TestDecodeStateRejectsOversizedSeenCount forges the first-touch
// page count in an encoded memory. The decoder sizes its page list from
// that count, so a count the remaining bytes cannot hold must fail the
// decode before anything is allocated: a list sized for 10^8 or
// 2^32-1 entries ends the process with a fatal out-of-memory error,
// which no recover catches.
func TestDecodeStateRejectsOversizedSeenCount(t *testing.T) {
	m := touched(t, 4)
	payload := encodeMemory(m)
	at := seenAt(m)
	if got := binary.LittleEndian.Uint32(payload[at:]); got == 0 || got != uint32(len(m.seen.pages)) {
		t.Fatalf("count at offset %d = %d, want the %d pages seen", at, got, len(m.seen.pages))
	}
	fits := uint32((len(payload) - at - 4) / seenStateBytes)
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

// TestDuplicateSeenPageFailsNextFault forges a page listed twice among
// the pages faulted in: it would hold two ranks, so two backing
// addresses. The decode copies the pages without indexing them, and
// the next page fault, which builds the index, must fail with an error
// naming the duplicate, as must every fault after it.
func TestDuplicateSeenPageFailsNextFault(t *testing.T) {
	m := touched(t, 4)
	forged := encodeMemory(m)
	first := seenAt(m) + 4
	copy(forged[first+seenStateBytes:first+2*seenStateBytes], forged[first:])
	restored := tiny(t)
	d := checkpoint.NewDec(forged)
	restored.DecodeState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := 0; i < 2; i++ {
		_, err := restored.Translate(3, mem.VAddr(0x900000+uint64(i)*4096), false)
		if err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Errorf("fault %d after the restore: error = %v, want one naming a page listed twice", i, err)
		}
	}
}
