package trace

import (
	"io"
	"testing"

	"rampage/internal/mem"
)

func ref(pid mem.PID, kind mem.RefKind, addr uint64) mem.Ref {
	return mem.Ref{PID: pid, Kind: kind, Addr: mem.VAddr(addr)}
}

func mustDrain(t *testing.T, r Reader) []mem.Ref {
	t.Helper()
	refs, err := Drain(r)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return refs
}

func TestSliceReader(t *testing.T) {
	in := []mem.Ref{ref(0, mem.IFetch, 0x100), ref(0, mem.Load, 0x200)}
	r := NewSliceReader(in)
	got := mustDrain(t, r)
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Errorf("Drain = %v, want %v", got, in)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next after exhaustion = %v, want io.EOF", err)
	}
	r.Reset()
	if got := mustDrain(t, r); len(got) != 2 {
		t.Errorf("after Reset got %d refs, want 2", len(got))
	}
}

func TestConcat(t *testing.T) {
	a := NewSliceReader([]mem.Ref{ref(0, mem.IFetch, 1)})
	b := NewSliceReader(nil)
	c := NewSliceReader([]mem.Ref{ref(0, mem.Load, 2), ref(0, mem.Store, 3)})
	got := mustDrain(t, NewConcat(a, b, c))
	if len(got) != 3 {
		t.Fatalf("Concat yielded %d refs, want 3", len(got))
	}
	if got[0].Addr != 1 || got[1].Addr != 2 || got[2].Addr != 3 {
		t.Errorf("Concat order wrong: %v", got)
	}
}

// TestRetag pins the interleaver's PID tagging: the inputs carry PIDs
// other than their stream index, and every interleaved reference must
// carry its stream's index instead.
func TestRetag(t *testing.T) {
	a := NewSliceReader([]mem.Ref{ref(5, mem.Load, 1), ref(mem.KernelPID, mem.Store, 2)})
	b := NewSliceReader([]mem.Ref{ref(mem.KernelPID, mem.IFetch, 3)})
	il, err := NewInterleaver([]Reader{a, b}, 1)
	if err != nil {
		t.Fatalf("NewInterleaver: %v", err)
	}
	got := mustDrain(t, il)
	want := []mem.Ref{ref(0, mem.Load, 1), ref(1, mem.IFetch, 3), ref(0, mem.Store, 2)}
	if len(got) != len(want) {
		t.Fatalf("interleaved %d refs, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ref %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestInterleaverRoundRobin's inputs also carry PIDs other than their
// stream index, so the rotation order is read from the retagged PIDs.
func TestInterleaverRoundRobin(t *testing.T) {
	mk := func(n int) Reader {
		refs := make([]mem.Ref, n)
		for i := range refs {
			refs[i] = ref(mem.KernelPID-mem.PID(i), mem.Load, uint64(i))
		}
		return NewSliceReader(refs)
	}
	il, err := NewInterleaver([]Reader{mk(4), mk(4), mk(4)}, 2)
	if err != nil {
		t.Fatalf("NewInterleaver: %v", err)
	}
	got := mustDrain(t, il)
	if len(got) != 12 {
		t.Fatalf("interleaved %d refs, want 12", len(got))
	}
	wantPIDs := []mem.PID{0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2}
	for i, r := range got {
		if r.PID != wantPIDs[i] {
			t.Fatalf("ref %d has PID %d, want %d (%v)", i, r.PID, wantPIDs[i], got)
		}
	}
	if il.SwitchCount() == 0 {
		t.Error("SwitchCount = 0, want > 0")
	}
}

func TestInterleaverUnevenStreams(t *testing.T) {
	short := NewSliceReader([]mem.Ref{ref(0, mem.Load, 1)})
	long := NewSliceReader([]mem.Ref{
		ref(0, mem.Load, 1), ref(0, mem.Load, 2), ref(0, mem.Load, 3),
		ref(0, mem.Load, 4), ref(0, mem.Load, 5),
	})
	il, err := NewInterleaver([]Reader{short, long}, 2)
	if err != nil {
		t.Fatalf("NewInterleaver: %v", err)
	}
	got := mustDrain(t, il)
	if len(got) != 6 {
		t.Fatalf("interleaved %d refs, want 6", len(got))
	}
	// Stream 0 contributes exactly one ref; the rest come from stream 1.
	var n0 int
	for _, r := range got {
		if r.PID == 0 {
			n0++
		}
	}
	if n0 != 1 {
		t.Errorf("stream 0 contributed %d refs, want 1", n0)
	}
}

func TestInterleaverErrors(t *testing.T) {
	if _, err := NewInterleaver(nil, 10); err == nil {
		t.Error("NewInterleaver(nil) succeeded, want error")
	}
	if _, err := NewInterleaver([]Reader{NewSliceReader(nil)}, 0); err == nil {
		t.Error("NewInterleaver(quantum=0) succeeded, want error")
	}
}

func TestStats(t *testing.T) {
	s := NewStats()
	s.Observe(ref(1, mem.IFetch, 0x100))
	s.Observe(ref(1, mem.Load, 0x200))
	s.Observe(ref(2, mem.Store, 0x50))
	if s.Total != 3 || s.IFetches() != 1 || s.Loads() != 1 || s.Stores() != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.DataRefs() != 2 {
		t.Errorf("DataRefs = %d, want 2", s.DataRefs())
	}
	if s.MinAddr != 0x50 || s.MaxAddr != 0x200 {
		t.Errorf("addr span [%#x,%#x], want [0x50,0x200]", s.MinAddr, s.MaxAddr)
	}
	if s.ByPID[1] != 2 || s.ByPID[2] != 1 {
		t.Errorf("ByPID = %v", s.ByPID)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestCollect(t *testing.T) {
	s, err := Collect(NewSliceReader([]mem.Ref{ref(0, mem.Load, 1), ref(0, mem.Load, 2)}))
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if s.Total != 2 {
		t.Errorf("Total = %d, want 2", s.Total)
	}
}
