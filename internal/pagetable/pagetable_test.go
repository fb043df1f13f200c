package pagetable

import (
	"testing"
	"testing/quick"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/policy"
)

func small(t *testing.T, frames uint64) *Inverted {
	t.Helper()
	pt, err := New(Config{Frames: frames, PageBytes: 4096, TableBase: 0xF010_0000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return pt
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Frames: 0, PageBytes: 4096}).Validate(); err == nil {
		t.Error("zero frames accepted")
	}
	if err := (Config{Frames: 8, PageBytes: 3000}).Validate(); err == nil {
		t.Error("non-power-of-two page accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with bad config succeeded")
	}
}

func TestAllocMapLookup(t *testing.T) {
	pt := small(t, 8)
	f, ok := pt.AllocFree()
	if !ok {
		t.Fatal("no free frame in fresh table")
	}
	if err := pt.Map(3, 0x42, f); err != nil {
		t.Fatalf("Map: %v", err)
	}
	got, probes, ok := pt.Lookup(3, 0x42)
	if !ok || got != f {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", got, ok, f)
	}
	if len(probes) < 2 {
		t.Errorf("lookup probed %d addresses, want >= 2 (HAT + entry)", len(probes))
	}
	// The first probe is the hash-anchor slot; later ones are entries.
	if probes[0] < pt.Config().TableBase {
		t.Errorf("probe address %#x below table base", probes[0])
	}
	// Missing translations miss.
	if _, _, ok := pt.Lookup(3, 0x43); ok {
		t.Error("lookup of unmapped vpn hit")
	}
	if _, _, ok := pt.Lookup(4, 0x42); ok {
		t.Error("lookup with wrong pid hit")
	}
}

func TestFreeListExhaustion(t *testing.T) {
	pt := small(t, 4)
	if pt.FreeFrames() != 4 {
		t.Fatalf("FreeFrames = %d, want 4", pt.FreeFrames())
	}
	for i := 0; i < 4; i++ {
		f, ok := pt.AllocFree()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if err := pt.Map(1, uint64(i), f); err != nil {
			t.Fatalf("Map: %v", err)
		}
	}
	if _, ok := pt.AllocFree(); ok {
		t.Error("alloc succeeded on full table")
	}
	if pt.FreeFrames() != 0 {
		t.Errorf("FreeFrames = %d, want 0", pt.FreeFrames())
	}
}

func TestMapErrors(t *testing.T) {
	pt := small(t, 4)
	if err := pt.Map(1, 1, 99); err == nil {
		t.Error("Map to out-of-range frame succeeded")
	}
	f, _ := pt.AllocFree()
	pt.Map(1, 1, f)
	if err := pt.Map(2, 2, f); err == nil {
		t.Error("Map to occupied frame succeeded")
	}
}

// TestUnmapRemap pins page replacement's frame reuse: Unmap drops the
// mapping but does not free the frame, which the caller remaps at once,
// so the free list keeps the frames New ordered and no others.
func TestUnmapRemap(t *testing.T) {
	pt := small(t, 4)
	f, _ := pt.AllocFree()
	pt.Map(7, 0x99, f)
	pt.SetDirty(f)
	pid, vpn, dirty, err := pt.Unmap(f)
	if err != nil || pid != 7 || vpn != 0x99 || !dirty {
		t.Fatalf("Unmap = (%d, %#x, %v, %v)", pid, vpn, dirty, err)
	}
	if _, _, ok := pt.Lookup(7, 0x99); ok {
		t.Error("unmapped translation still found")
	}
	if _, _, _, err := pt.Unmap(f); err == nil {
		t.Error("double unmap succeeded")
	}
	if pt.FreeFrames() != 3 {
		t.Errorf("FreeFrames = %d after unmap, want 3: an unmapped frame is not free", pt.FreeFrames())
	}
	if err := pt.Map(8, 0x100, f); err != nil {
		t.Fatalf("remapping the unmapped frame: %v", err)
	}
	if got, _, ok := pt.Lookup(8, 0x100); !ok || got != f {
		t.Errorf("Lookup after remap = (%d, %v), want (%d, true)", got, ok, f)
	}
}

func TestChainCollisions(t *testing.T) {
	// With more mappings than HAT buckets... the HAT is sized >= frames,
	// so force collisions by filling every frame and verifying all
	// lookups still succeed (chains must be walked correctly).
	pt := small(t, 64)
	for i := uint64(0); i < 64; i++ {
		f, ok := pt.AllocFree()
		if !ok {
			t.Fatal("alloc failed")
		}
		if err := pt.Map(mem.PID(i%4), i*7919, f); err != nil {
			t.Fatalf("Map %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 64; i++ {
		if _, _, ok := pt.Lookup(mem.PID(i%4), i*7919); !ok {
			t.Fatalf("mapping %d lost", i)
		}
	}
}

func TestUnmapMiddleOfChain(t *testing.T) {
	// Build a guaranteed chain by mapping many VPNs, then unmap one and
	// verify the others survive. With HAT == frames size collisions are
	// rare but possible; force determinism by unmapping every other
	// frame.
	pt := small(t, 32)
	frames := make([]uint64, 32)
	for i := range frames {
		f, _ := pt.AllocFree()
		frames[i] = f
		pt.Map(1, uint64(i)*31, f)
	}
	for i := 0; i < 32; i += 2 {
		if _, _, _, err := pt.Unmap(frames[i]); err != nil {
			t.Fatalf("Unmap %d: %v", i, err)
		}
	}
	for i := 1; i < 32; i += 2 {
		if _, _, ok := pt.Lookup(1, uint64(i)*31); !ok {
			t.Fatalf("survivor mapping %d lost after neighbors unmapped", i)
		}
	}
	for i := 0; i < 32; i += 2 {
		if _, _, ok := pt.Lookup(1, uint64(i)*31); ok {
			t.Fatalf("unmapped mapping %d still found", i)
		}
	}
}

func TestClockSelectBasic(t *testing.T) {
	pt := small(t, 4)
	for i := uint64(0); i < 4; i++ {
		f, _ := pt.AllocFree()
		pt.Map(1, i, f)
	}
	// All use bits set by Map; first ClockSelect clears them all and
	// wraps to pick frame 0.
	victim, scans, ok := pt.ClockSelect(nil)
	if !ok {
		t.Fatal("ClockSelect found no victim")
	}
	if victim != 0 {
		t.Errorf("victim = %d, want 0 (first frame after full sweep)", victim)
	}
	if len(scans) != 5 {
		t.Errorf("clock scanned %d entries, want 5 (4 clears + revisit)", len(scans))
	}
}

func TestClockSecondChance(t *testing.T) {
	pt := small(t, 4)
	for i := uint64(0); i < 4; i++ {
		f, _ := pt.AllocFree()
		pt.Map(1, i, f)
	}
	v1, _, _ := pt.ClockSelect(nil) // clears all, picks 0
	// Re-touch frame 1 only; next select must skip it.
	pt.Touch(1)
	v2, _, ok := pt.ClockSelect(nil)
	if !ok {
		t.Fatal("no victim")
	}
	if v2 == 1 {
		t.Error("clock evicted a recently used frame over unused ones")
	}
	if v1 == v2 {
		// hand advanced past v1, so the same victim twice means the
		// hand did not move.
		t.Error("clock hand did not advance")
	}
}

func TestClockSkipsPinned(t *testing.T) {
	pt := small(t, 4)
	for i := uint64(0); i < 4; i++ {
		f, _ := pt.AllocFree()
		pt.Map(1, i, f)
		if i != 2 {
			pt.Pin(f)
		}
	}
	for trial := 0; trial < 8; trial++ {
		victim, _, ok := pt.ClockSelect(nil)
		if !ok {
			t.Fatal("no victim with one unpinned frame")
		}
		if victim != 2 {
			t.Fatalf("clock picked pinned frame %d", victim)
		}
		pt.Touch(victim)
	}
}

func TestClockAllPinned(t *testing.T) {
	pt := small(t, 2)
	for i := uint64(0); i < 2; i++ {
		f, _ := pt.AllocFree()
		pt.Map(1, i, f)
		pt.Pin(f)
	}
	if _, _, ok := pt.ClockSelect(nil); ok {
		t.Error("ClockSelect returned a pinned victim")
	}
}

func TestFrameInfo(t *testing.T) {
	pt := small(t, 2)
	f, _ := pt.AllocFree()
	pt.Map(5, 0x77, f)
	pt.SetDirty(f)
	pt.Pin(f)
	pid, vpn, valid, dirty, pinned := pt.FrameInfo(f)
	if pid != 5 || vpn != 0x77 || !valid || !dirty || !pinned {
		t.Errorf("FrameInfo = (%d, %#x, %v, %v, %v)", pid, vpn, valid, dirty, pinned)
	}
}

func TestEntryAddressesDisjoint(t *testing.T) {
	pt := small(t, 16)
	seen := map[uint64]bool{}
	for f := uint64(0); f < 16; f++ {
		a := pt.EntryAddr(f)
		if seen[a] {
			t.Fatalf("duplicate entry address %#x", a)
		}
		seen[a] = true
		if a < pt.Config().TableBase || a >= pt.Config().TableBase+pt.TableBytes() {
			t.Fatalf("entry address %#x outside table span", a)
		}
	}
}

func TestTableBytes(t *testing.T) {
	pt := small(t, 1024)
	// 1024 HAT slots * 4 + 1024 entries * 16 = 20KB.
	if got := pt.TableBytes(); got != 1024*4+1024*16 {
		t.Errorf("TableBytes = %d, want %d", got, 1024*4+1024*16)
	}
}

func TestStatsCounting(t *testing.T) {
	pt := small(t, 8)
	f, _ := pt.AllocFree()
	pt.Map(1, 5, f)
	pt.Lookup(1, 5)
	pt.Lookup(1, 6)
	s := pt.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Maps != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMapLookupUnmapProperty(t *testing.T) {
	pt := small(t, 256)
	allocated := map[uint64]struct {
		pid mem.PID
		vpn uint64
	}{}
	var unmapped []uint64 // frames unmapped and not yet remapped
	f := func(pidRaw uint8, vpn uint32, unmap bool) bool {
		pid := mem.PID(pidRaw % 8)
		if unmap && len(allocated) > 0 {
			for frame, m := range allocated {
				if _, _, _, err := pt.Unmap(frame); err != nil {
					return false
				}
				unmapped = append(unmapped, frame)
				if _, _, ok := pt.Lookup(m.pid, m.vpn); ok {
					return false
				}
				delete(allocated, frame)
				break
			}
			return true
		}
		// Skip duplicate (pid, vpn) mappings.
		for _, m := range allocated {
			if m.pid == pid && m.vpn == uint64(vpn) {
				return true
			}
		}
		// Remap an unmapped frame first, as page replacement does; draw
		// a free one only when none is waiting.
		var frame uint64
		if n := len(unmapped); n > 0 {
			frame, unmapped = unmapped[n-1], unmapped[:n-1]
		} else {
			var ok bool
			if frame, ok = pt.AllocFree(); !ok {
				return true // table full: acceptable
			}
		}
		if err := pt.Map(pid, uint64(vpn), frame); err != nil {
			return false
		}
		allocated[frame] = struct {
			pid mem.PID
			vpn uint64
		}{pid, uint64(vpn)}
		got, _, ok := pt.Lookup(pid, uint64(vpn))
		return ok && got == frame
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRecycleReusesSlabs pins the arena contract: a recycled table's
// slabs back the next same-geometry table, construction in a recycle
// loop stops allocating backing arrays, and a fresh table never sees a
// predecessor's entries.
func TestRecycleReusesSlabs(t *testing.T) {
	cfg := Config{Frames: 64, PageBytes: 4096, TableBase: 0xF010_0000}
	pt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := pt.AllocFree()
	if err := pt.Map(3, 77, frame); err != nil {
		t.Fatal(err)
	}
	pt.SetDirty(frame)
	pt.Recycle()
	pt.Recycle() // idempotent

	pt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pt2.Lookup(3, 77); ok {
		t.Error("recycled slab leaked a mapping into the next table")
	}
	for i, f := range pt2.DirtyHot() {
		if f != 0 {
			t.Errorf("frame %d: stale flags %#x after recycle", i, f)
		}
	}
	pt2.Recycle()

	// Steady state: with the arena warm, New+Recycle allocates only the
	// table header, never the backing columns (which would be 4+ more).
	allocs := testing.AllocsPerRun(20, func() {
		pt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pt.Recycle()
	})
	if allocs > 2 {
		t.Errorf("New+Recycle allocates %.1f times in steady state; arena is not reusing slabs", allocs)
	}
}

// TestClockScanObservationMatchesCounter pins the scan accounting
// contract: across every replacement policy and every selection
// outcome — immediate hit, use-clearing sweep, all-pinned failure —
// the EvClockSweep histogram sum equals the ClockScans counter
// exactly, because both are fed the same examined-entry count per
// selection.
func TestClockScanObservationMatchesCounter(t *testing.T) {
	for _, pol := range policy.Names() {
		t.Run(pol, func(t *testing.T) {
			pt, err := New(Config{Frames: 8, PageBytes: 4096, TableBase: 0xF010_0000, Policy: pol, PolicySeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			col := metrics.NewCollector(0)
			pt.SetObserver(col)

			check := func(stage string) {
				t.Helper()
				h := col.Hist(metrics.EvClockSweep)
				if h.Sum != pt.Stats().ClockScans {
					t.Fatalf("%s: observed scan sum %d != ClockScans %d", stage, h.Sum, pt.Stats().ClockScans)
				}
			}

			// Map every frame (each arrives used).
			for f := uint64(0); f < 8; f++ {
				if err := pt.Map(1, f, f); err != nil {
					t.Fatal(err)
				}
			}
			// Use-clearing path: all frames start used, so the clock
			// must sweep; ranking policies pick directly.
			if _, _, ok := pt.ClockSelect(nil); !ok {
				t.Fatal("no victim in a fully mapped table")
			}
			check("use-clearing selection")

			// Immediate path: a second selection right away.
			if _, _, ok := pt.ClockSelect(nil); !ok {
				t.Fatal("no victim on second selection")
			}
			check("immediate selection")

			// Failure path: pin everything; the selection must fail but
			// still account every examined entry identically.
			for f := uint64(0); f < 8; f++ {
				pt.Pin(f)
			}
			if _, _, ok := pt.ClockSelect(nil); ok {
				t.Fatal("victim selected from an all-pinned table")
			}
			check("all-pinned failure")

			if pt.Stats().ClockScans == 0 {
				t.Error("selections examined zero entries total")
			}
		})
	}
}

// allocOrder drains pt's free list and returns the frames in the order
// AllocFree handed them out.
func allocOrder(pt *Inverted) []uint64 {
	var order []uint64
	for {
		f, ok := pt.AllocFree()
		if !ok {
			return order
		}
		order = append(order, f)
	}
}

// TestRecycledSlabKeepsFreeList pins the construction-order reuse: a
// table built on a slab recycled from a table of the same order hands
// out frames in the order a freshly built table does, without New
// rewriting the free-list links, and a slab recycled from another
// order (another seed, or no shuffle) is rebuilt for the new one.
func TestRecycledSlabKeepsFreeList(t *testing.T) {
	base := Config{Frames: 200, PageBytes: 4096, TableBase: 0xF010_0000}
	orders := []Config{base, base, base}
	orders[1].Scramble, orders[1].ScrambleSeed = true, 1
	orders[2].Scramble, orders[2].ScrambleSeed = true, 2
	want := make([][]uint64, len(orders))
	for i, cfg := range orders {
		want[i] = allocOrder(MustNew(cfg)) // never recycled: each builds its own slab
		if want[i][0] != 0 {
			t.Fatalf("order %d starts at frame %d, want 0", i, want[i][0])
		}
	}
	for _, i := range []int{1, 1, 2, 0, 2, 2} {
		pt := MustNew(orders[i])
		if got := allocOrder(pt); !equalFrames(got, want[i]) {
			t.Fatalf("order %d on a recycled slab hands out %v, want %v", i, got, want[i])
		}
		pt.Recycle()
	}

	// The skip itself, seen through the chain-link column, which New
	// uses as the shuffle's scratch and which is dead until Map writes
	// it: a mark left there survives New for the slab's own order and
	// not a rebuild for another.
	for _, tc := range []struct {
		order   int
		rebuilt bool
	}{{1, false}, {2, true}} {
		pt := MustNew(orders[1])
		s := pt.slab
		pt.Recycle()
		const mark = -7
		s.i32[256+100] = mark // next[100]
		pt = MustNew(orders[tc.order])
		if pt.slab != s {
			t.Skip("the arena dropped the recycled slab")
		}
		if rebuilt := pt.next[100] != mark; rebuilt != tc.rebuilt {
			t.Errorf("order %d on a slab holding order 1: free list rebuilt = %v, want %v", tc.order, rebuilt, tc.rebuilt)
		}
		pt.Recycle()
	}
}

func equalFrames(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
