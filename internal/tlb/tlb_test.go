package tlb

import (
	"strings"
	"testing"
	"testing/quick"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
)

func paperTLB(t *testing.T, pageBytes uint64) *TLB {
	t.Helper()
	tb, err := New(DefaultConfig(pageBytes))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tb
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Entries: 0, PageBytes: 4096},
		{Entries: 63, PageBytes: 4096},
		{Entries: 64, Assoc: -1, PageBytes: 4096},
		{Entries: 64, Assoc: 128, PageBytes: 4096},
		{Entries: 64, PageBytes: 0},
		{Entries: 64, PageBytes: 3000},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if err := DefaultConfig(4096).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewRejectsUnevenSets(t *testing.T) {
	// 64 entries at 3-way does not divide evenly.
	if _, err := New(Config{Entries: 64, Assoc: 3, PageBytes: 4096}); err == nil {
		t.Error("uneven set division accepted")
	}
}

func TestLookupInsert(t *testing.T) {
	tb := paperTLB(t, 4096)
	if _, hit := tb.Lookup(1, 0x12345); hit {
		t.Error("cold lookup hit")
	}
	tb.Insert(1, 0x12345, 77)
	pa, hit := tb.Lookup(1, 0x12345)
	if !hit {
		t.Fatal("lookup missed after insert")
	}
	if want := mem.PAddr(77<<12 | 0x345); pa != want {
		t.Errorf("translated to %#x, want %#x", pa, want)
	}
	// Same page, different offset.
	pa, hit = tb.Lookup(1, 0x12FFF)
	if !hit || pa != mem.PAddr(77<<12|0xFFF) {
		t.Errorf("same-page lookup = (%#x, %v)", pa, hit)
	}
	// Different page misses.
	if _, hit := tb.Lookup(1, 0x13000); hit {
		t.Error("different page hit")
	}
	s := tb.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPIDIsolation(t *testing.T) {
	tb := paperTLB(t, 4096)
	tb.Insert(1, 0x1000, 5)
	if _, hit := tb.Lookup(2, 0x1000); hit {
		t.Error("translation leaked across PIDs")
	}
	tb.Insert(2, 0x1000, 9)
	paA, _ := tb.Lookup(1, 0x1000)
	paB, _ := tb.Lookup(2, 0x1000)
	if paA == paB {
		t.Error("two PIDs share a frame mapping")
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tb := paperTLB(t, 4096)
	tb.Insert(1, 0x1000, 5)
	tb.Insert(1, 0x1000, 6)
	pa, hit := tb.Lookup(1, 0x1000)
	if !hit || pa>>12 != 6 {
		t.Errorf("updated translation = (%#x, %v), want frame 6", pa, hit)
	}
}

func TestCapacityEviction(t *testing.T) {
	tb := paperTLB(t, 4096)
	// Fill all 64 entries plus one more.
	for i := 0; i < 65; i++ {
		tb.Insert(1, mem.VAddr(i)<<12, uint64(i))
	}
	present := 0
	for i := 0; i < 65; i++ {
		if tb.Probe(1, mem.VAddr(i)<<12) {
			present++
		}
	}
	if present != 64 {
		t.Errorf("%d translations present, want exactly 64", present)
	}
}

func TestInvalidate(t *testing.T) {
	tb := paperTLB(t, 4096)
	tb.Insert(1, 0x5000, 3)
	if !tb.Invalidate(1, 0x5000) {
		t.Error("Invalidate missed present entry")
	}
	if tb.Probe(1, 0x5000) {
		t.Error("entry present after invalidate")
	}
	if tb.Invalidate(1, 0x5000) {
		t.Error("double invalidate reported present")
	}
	if tb.Stats().Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", tb.Stats().Invalidations)
	}
}

func TestFlushPID(t *testing.T) {
	tb := paperTLB(t, 4096)
	tb.Insert(1, 0x1000, 1)
	tb.Insert(1, 0x2000, 2)
	tb.Insert(2, 0x1000, 3)
	tb.FlushPID(1)
	if tb.Probe(1, 0x1000) || tb.Probe(1, 0x2000) {
		t.Error("PID 1 entries survived FlushPID")
	}
	if !tb.Probe(2, 0x1000) {
		t.Error("PID 2 entry lost in FlushPID(1)")
	}
}

func TestFlushAll(t *testing.T) {
	tb := paperTLB(t, 4096)
	tb.Insert(1, 0x1000, 1)
	tb.Insert(2, 0x2000, 2)
	tb.FlushAll()
	if tb.Probe(1, 0x1000) || tb.Probe(2, 0x2000) {
		t.Error("entries survived FlushAll")
	}
}

func TestSetAssociativeVariant(t *testing.T) {
	// The §6.3 ablation TLB: 1K entries, 2-way.
	tb := MustNew(Config{Entries: 1024, Assoc: 2, PageBytes: 4096})
	// Two VPNs mapping to the same set coexist; a third evicts one.
	sets := uint64(512)
	v1 := mem.VAddr(0) << 12
	v2 := mem.VAddr(sets) << 12
	v3 := mem.VAddr(2*sets) << 12
	tb.Insert(1, v1, 1)
	tb.Insert(1, v2, 2)
	if !tb.Probe(1, v1) || !tb.Probe(1, v2) {
		t.Fatal("2-way set cannot hold two conflicting translations")
	}
	tb.Insert(1, v3, 3)
	n := 0
	for _, v := range []mem.VAddr{v1, v2, v3} {
		if tb.Probe(1, v) {
			n++
		}
	}
	if n != 2 {
		t.Errorf("%d of 3 conflicting translations present, want 2", n)
	}
}

func TestReach(t *testing.T) {
	if got := paperTLB(t, 128).Reach(); got != 64*128 {
		t.Errorf("Reach = %d, want %d (the Figure 4 collapse: 8KB)", got, 64*128)
	}
	if got := paperTLB(t, 4096).Reach(); got != 64*4096 {
		t.Errorf("Reach = %d, want 256KB", got)
	}
}

func TestTranslationProperty(t *testing.T) {
	tb := paperTLB(t, 1024)
	f := func(vaddr uint32, frame uint16) bool {
		v := mem.VAddr(vaddr)
		tb.Insert(3, v, uint64(frame))
		pa, hit := tb.Lookup(3, v)
		if !hit {
			return false
		}
		// Page offset must be preserved; frame must be as inserted.
		return uint64(pa)&1023 == uint64(v)&1023 && uint64(pa)>>10 == uint64(frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMissRateAndMustNew(t *testing.T) {
	s := Stats{Hits: 9, Misses: 1}
	if s.MissRate() != 0.1 {
		t.Errorf("MissRate = %g", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

// TestDecodeStateRejectsFrameOutOfRange forges a TLB entry naming a
// frame past the page table it caches: the simulator's fused path
// indexes the table's per-frame columns with a hit's frame, so the
// decode must fail. The genuine payload decodes.
func TestDecodeStateRejectsFrameOutOfRange(t *testing.T) {
	const frames = 32
	tb := paperTLB(t, 4096)
	for i := uint64(0); i < 8; i++ {
		tb.Insert(1, mem.VAddr(i<<12), i)
	}
	decode := func(tb *TLB) error {
		e := checkpoint.NewEnc()
		tb.EncodeState(e)
		d := checkpoint.NewDec(e.Bytes())
		paperTLB(t, 4096).DecodeState(d, frames)
		return d.Err()
	}
	if err := decode(tb); err != nil {
		t.Fatalf("genuine payload: %v", err)
	}
	tb.Insert(1, 0x9000, frames)
	if err := decode(tb); err == nil || !strings.Contains(err.Error(), "frame") {
		t.Errorf("decode error = %v, want a frame range error", err)
	}
}

// TestCheckConsistencyFindsBadFilterSlots pins the filter half of the
// check every restore ends with: a TLB that has inserted and hit
// passes, and a single filter slot past the entries or negative,
// anywhere in the filter, is reported.
func TestCheckConsistencyFindsBadFilterSlots(t *testing.T) {
	tb := paperTLB(t, 4096)
	for vpn := uint64(0); vpn < 100; vpn++ {
		tb.Insert(1, mem.VAddr(vpn<<12), vpn)
		tb.Lookup(1, mem.VAddr(vpn<<12))
	}
	if err := tb.CheckConsistency(); err != nil {
		t.Fatalf("genuine TLB: %v", err)
	}
	for _, tc := range []struct {
		slot int
		v    int32
	}{{0, 64}, {FilterSlots - 1, -1}, {777, 1 << 30}} {
		saved := tb.filter[tc.slot]
		tb.filter[tc.slot] = tc.v
		if err := tb.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "filter slot") {
			t.Errorf("slot %d = %d: error = %v, want a filter slot error", tc.slot, tc.v, err)
		}
		tb.filter[tc.slot] = saved
	}
}
