package sim

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
	"rampage/internal/trace"
)

func TestResizeRebuildsMemory(t *testing.T) {
	r := testRAMpage(t, 1000, 1024, false)
	// Dirty some pages and warm L1.
	for i := 0; i < 64; i++ {
		if _, err := r.Exec(uref(1, mem.Store, uint64(0x100000+i*1024))); err != nil {
			t.Fatal(err)
		}
	}
	wbBefore := r.Report().Writebacks
	dramBefore := r.Report().LevelTime[3]
	if err := r.Resize(4096, 256<<10+8<<10); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	rep := r.Report()
	if rep.Resizes != 1 {
		t.Errorf("Resizes = %d, want 1", rep.Resizes)
	}
	if rep.Writebacks <= wbBefore {
		t.Error("resize did not write back dirty pages")
	}
	if rep.LevelTime[3] <= dramBefore {
		t.Error("resize charged no DRAM time for the flush")
	}
	// The machine still runs, now with 4KB pages: a fresh access
	// refaults.
	faults := rep.PageFaults
	if _, err := r.Exec(uref(1, mem.Load, 0x100000)); err != nil {
		t.Fatal(err)
	}
	if rep.PageFaults != faults+1 {
		t.Error("access after resize did not refault")
	}
	if r.Memory().PageBytes() != 4096 {
		t.Errorf("page size = %d after resize, want 4096", r.Memory().PageBytes())
	}
}

func TestResizeRefusesInFlight(t *testing.T) {
	r := testRAMpage(t, 1000, 1024, true)
	block, err := r.Exec(uref(1, mem.Load, 0x100000))
	if err != nil {
		t.Fatal(err)
	}
	if block == 0 {
		t.Fatal("expected a blocking fault")
	}
	if err := r.Resize(2048, 256<<10+4<<10); err == nil {
		t.Error("Resize succeeded with a transfer in flight")
	}
}

func TestAdaptiveRejectsSwitchOnMiss(t *testing.T) {
	cfg := AdaptiveConfig{RAMpageConfig: RAMpageConfig{
		Params:       DefaultParams(1000),
		SRAMBytes:    264 << 10,
		PageBytes:    1024,
		SwitchOnMiss: true,
	}}
	if _, err := NewAdaptiveRAMpage(cfg); err == nil {
		t.Error("adaptive machine accepted switch-on-miss")
	}
}

// TestAdaptiveDecodeRejectsUnreachableGeometry forges the SRAM
// geometry an adaptive checkpoint opens with. Decode rebuilds the SRAM
// at that geometry, so a capacity the controller cannot reach must fail
// the decode before anything is allocated: 2^40 bytes of 128-byte
// pages would need a page table of 2^33 frames.
func TestAdaptiveDecodeRejectsUnreachableGeometry(t *testing.T) {
	build := func() *AdaptiveRAMpage {
		a, err := NewAdaptiveRAMpage(AdaptiveConfig{RAMpageConfig: RAMpageConfig{
			Params:    DefaultParams(1000),
			SRAMBytes: 264 << 10,
			PageBytes: 1024,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	e := checkpoint.NewEnc()
	build().EncodeState(e)
	payload := e.Bytes()
	// The marker, then the page size and the SRAM capacity.
	for _, geom := range [][2]uint64{{128, 1 << 40}, {64, 264 << 10}, {8192, 264 << 10}} {
		forged := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(forged[4:], geom[0])
		binary.LittleEndian.PutUint64(forged[12:], geom[1])
		d := checkpoint.NewDec(forged)
		build().DecodeState(d)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), "geometry") {
			t.Errorf("geometry %d B pages, %d B SRAM: decode error = %v, want a geometry error", geom[0], geom[1], err)
		}
	}
	reachable := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(reachable[4:], 2048)
	d := checkpoint.NewDec(reachable)
	build().DecodeState(d)
	if err := d.Err(); err != nil && strings.Contains(err.Error(), "geometry") {
		t.Errorf("reachable geometry refused: %v", err)
	}
}

func TestAdaptiveGrowsUnderTLBPressure(t *testing.T) {
	// A workload sweeping a large region with tiny pages drowns in TLB
	// misses; the controller must grow the page size.
	a, err := NewAdaptiveRAMpage(AdaptiveConfig{
		RAMpageConfig: RAMpageConfig{
			Params:    DefaultParams(200), // slow clock: DRAM cheap, handlers dear
			SRAMBytes: 512 << 10,
			PageBytes: 128,
		},
		EpochRefs: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var refs []mem.Ref
	for i := 0; i < 200_000; i++ {
		refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(0x100000 + uint64(i*64)%(256<<10))})
	}
	s, _ := NewScheduler(a, []trace.Reader{trace.NewSliceReader(refs)}, SchedulerConfig{Quantum: 50_000})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resizes == 0 {
		t.Fatal("adaptive controller never resized under TLB pressure")
	}
	if a.PageBytes() <= 128 {
		t.Errorf("page size = %d after TLB pressure, want growth", a.PageBytes())
	}
}

func TestAdaptiveShrinksUnderDRAMPressure(t *testing.T) {
	// Random single-element touches over a huge region with 4KB pages
	// waste whole-page transfers; the controller must shrink.
	a, err := NewAdaptiveRAMpage(AdaptiveConfig{
		RAMpageConfig: RAMpageConfig{
			Params:    DefaultParams(4000), // fast clock: DRAM very dear
			SRAMBytes: 256 << 10,
			PageBytes: 4096,
		},
		EpochRefs: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var refs []mem.Ref
	for i := 0; i < 120_000; i++ {
		// A pseudo-random scatter over 16MB: every touch a fresh page.
		addr := 0x100000 + (uint64(i)*2654435761)%(16<<20)
		refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(addr)})
	}
	s, _ := NewScheduler(a, []trace.Reader{trace.NewSliceReader(refs)}, SchedulerConfig{Quantum: 50_000})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resizes == 0 {
		t.Fatal("adaptive controller never resized under DRAM pressure")
	}
	if a.PageBytes() >= 4096 {
		t.Errorf("page size = %d after DRAM pressure, want shrink", a.PageBytes())
	}
}

func TestAdaptiveBeatsWorstFixedChoice(t *testing.T) {
	// The adaptive machine need not beat the best fixed page size, but
	// it must comfortably beat the worst one on a TLB-hostile workload.
	mkRefs := func() []mem.Ref {
		var refs []mem.Ref
		for i := 0; i < 150_000; i++ {
			refs = append(refs, mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%1024)})
			refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(0x100000 + uint64(i*64)%(384<<10))})
		}
		return refs
	}
	fixed, err := NewRAMpage(RAMpageConfig{
		Params: DefaultParams(200), SRAMBytes: 512 << 10, PageBytes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	sf, _ := NewScheduler(fixed, []trace.Reader{trace.NewSliceReader(mkRefs())}, SchedulerConfig{Quantum: 50_000})
	repFixed, err := sf.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewAdaptiveRAMpage(AdaptiveConfig{
		RAMpageConfig: RAMpageConfig{Params: DefaultParams(200), SRAMBytes: 512 << 10, PageBytes: 128},
		EpochRefs:     20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := NewScheduler(a, []trace.Reader{trace.NewSliceReader(mkRefs())}, SchedulerConfig{Quantum: 50_000})
	repA, err := sa.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repA.Cycles >= repFixed.Cycles {
		t.Errorf("adaptive (%d cycles) did not beat the stuck-at-128B machine (%d)",
			repA.Cycles, repFixed.Cycles)
	}
}

func TestThreadSwitchCheaperThanProcessSwitch(t *testing.T) {
	// §3.2 multithreading: lightweight switches on misses must lower
	// total time relative to full process switches.
	mkReaders := func() []trace.Reader {
		var rs []trace.Reader
		for p := 0; p < 4; p++ {
			var refs []mem.Ref
			base := uint64(0x1000000 * (p + 1))
			for i := 0; i < 8000; i++ {
				refs = append(refs, mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%512)})
				refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(base + uint64(i)*8)})
			}
			rs = append(rs, trace.NewSliceReader(refs))
		}
		return rs
	}
	run := func(threads bool) mem.Cycles {
		r := testRAMpage(t, 4000, 1024, true)
		s, _ := NewScheduler(r, mkReaders(), SchedulerConfig{
			Quantum: 4000, InsertSwitchTrace: true, LightweightThreads: threads,
		})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.SwitchesOnMiss == 0 {
			t.Fatal("no switches on miss")
		}
		return rep.Cycles
	}
	process, thread := run(false), run(true)
	if thread >= process {
		t.Errorf("thread switching (%d cycles) not cheaper than process switching (%d)", thread, process)
	}
}
