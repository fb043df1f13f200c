package sim

import (
	"context"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

func testBaseline(t testing.TB, mhz uint64, l2Block uint64) *Baseline {
	t.Helper()
	b, err := NewBaseline(BaselineConfig{
		Params:    DefaultParams(mhz),
		L2Bytes:   256 << 10,
		L2Block:   l2Block,
		L2Assoc:   1,
		DRAMBytes: 16 << 20,
	})
	if err != nil {
		t.Fatalf("NewBaseline: %v", err)
	}
	return b
}

func testRAMpage(t testing.TB, mhz uint64, page uint64, switchOnMiss bool) *RAMpage {
	t.Helper()
	r, err := NewRAMpage(RAMpageConfig{
		Params:       DefaultParams(mhz),
		SRAMBytes:    256<<10 + 8<<10, // 256KB + 8KB tag bonus, page-aligned for 128B..8KB
		PageBytes:    page,
		SwitchOnMiss: switchOnMiss,
	})
	if err != nil {
		t.Fatalf("NewRAMpage: %v", err)
	}
	return r
}

func kref(kind mem.RefKind, off uint64) mem.Ref {
	return mem.Ref{PID: mem.KernelPID, Kind: kind, Addr: mem.VAddr(synth.KernelBase + off)}
}

func uref(pid mem.PID, kind mem.RefKind, addr uint64) mem.Ref {
	return mem.Ref{PID: pid, Kind: kind, Addr: mem.VAddr(addr)}
}

// --- Exact timing arithmetic (kernel path: no TLB, no handlers) ---

func TestBaselineColdIFetchTiming(t *testing.T) {
	// 200MHz, 128B L2 blocks. Cold kernel ifetch: 1 (issue) + 12 (L1
	// miss to L2) + 26 (DRAM: 130ns at 5000ps/cycle) = 39 cycles.
	b := testBaseline(t, 200, 128)
	if err := b.ExecTrace([]mem.Ref{kref(mem.IFetch, 0)}, ClassSwitch); err != nil {
		t.Fatal(err)
	}
	if b.Now() != 39 {
		t.Errorf("cold ifetch = %d cycles, want 39", b.Now())
	}
	// Warm repeat: 1 cycle.
	before := b.Now()
	b.ExecTrace([]mem.Ref{kref(mem.IFetch, 0)}, ClassSwitch)
	if got := b.Now() - before; got != 1 {
		t.Errorf("warm ifetch = %d cycles, want 1", got)
	}
	rep := b.Report()
	if rep.L1IMisses != 1 || rep.L2Misses != 1 {
		t.Errorf("misses: L1i=%d L2=%d, want 1, 1", rep.L1IMisses, rep.L2Misses)
	}
}

func TestBaselineL2HitTiming(t *testing.T) {
	// Two kernel ifetches in the same 128B L2 block but different 32B
	// L1 blocks: the second pays only the 12-cycle L2 hit penalty.
	b := testBaseline(t, 200, 128)
	b.ExecTrace([]mem.Ref{kref(mem.IFetch, 0)}, ClassSwitch)
	before := b.Now()
	b.ExecTrace([]mem.Ref{kref(mem.IFetch, 32)}, ClassSwitch)
	if got := b.Now() - before; got != 13 {
		t.Errorf("L2-hit ifetch = %d cycles, want 13 (1 + 12)", got)
	}
}

func TestBaselineDataHitIsFree(t *testing.T) {
	// §4.3: TLB and L1 data hits are fully pipelined.
	b := testBaseline(t, 200, 128)
	b.ExecTrace([]mem.Ref{kref(mem.Load, 0)}, ClassSwitch) // warm the block
	before := b.Now()
	b.ExecTrace([]mem.Ref{kref(mem.Load, 4), kref(mem.Store, 8)}, ClassSwitch)
	if got := b.Now() - before; got != 0 {
		t.Errorf("warm data refs cost %d cycles, want 0", got)
	}
}

func TestBaselineDRAMScalesWithClock(t *testing.T) {
	// The same cold miss costs more cycles at 4GHz: 1 + 12 + 520
	// (130ns at 250ps).
	b := testBaseline(t, 4000, 128)
	b.ExecTrace([]mem.Ref{kref(mem.IFetch, 0)}, ClassSwitch)
	if b.Now() != 1+12+520 {
		t.Errorf("4GHz cold ifetch = %d cycles, want 533", b.Now())
	}
}

func TestRAMpageKernelMissTiming(t *testing.T) {
	// RAMpage kernel ifetch: SRAM always hits after translation, so a
	// cold L1 miss costs 1 + 12 only — no DRAM reference (§2.3).
	r := testRAMpage(t, 200, 4096, false)
	if err := r.ExecTrace([]mem.Ref{kref(mem.IFetch, 0)}, ClassSwitch); err != nil {
		t.Fatal(err)
	}
	if r.Now() != 13 {
		t.Errorf("RAMpage cold kernel ifetch = %d cycles, want 13", r.Now())
	}
	if r.Report().LevelTime[stats.DRAM] != 0 {
		t.Error("pinned kernel access reached DRAM")
	}
}

func TestRAMpageWritebackPenalty9(t *testing.T) {
	// §4.3: write-backs cost 9 cycles in RAMpage (no L2 tag to update).
	r := testRAMpage(t, 200, 4096, false)
	// Dirty a block, then evict it with a conflicting block (L1 is
	// 16KB direct-mapped).
	r.ExecTrace([]mem.Ref{kref(mem.Store, 0)}, ClassSwitch) // miss+fill: 12
	before := r.Now()
	r.ExecTrace([]mem.Ref{kref(mem.Load, 16<<10)}, ClassSwitch) // conflict
	// Load miss: 12, plus write-back: 9.
	if got := r.Now() - before; got != 21 {
		t.Errorf("miss+writeback = %d cycles, want 21 (12+9)", got)
	}
}

// --- User path: TLB, page table, faults ---

func TestBaselineTLBMissRunsHandler(t *testing.T) {
	b := testBaseline(t, 200, 128)
	if _, err := b.Exec(uref(1, mem.Load, 0x100000)); err != nil {
		t.Fatal(err)
	}
	rep := b.Report()
	if rep.TLBMisses != 1 {
		t.Errorf("TLBMisses = %d, want 1", rep.TLBMisses)
	}
	if rep.OSTLBRefs == 0 {
		t.Error("TLB-miss handler trace not executed")
	}
	if rep.OSFaultRefs == 0 {
		t.Error("first-touch allocation trace not executed")
	}
	if rep.BenchRefs != 1 {
		t.Errorf("BenchRefs = %d, want 1", rep.BenchRefs)
	}
	// Second access to the same page: TLB hit, no more handler refs.
	os := rep.OSTLBRefs
	b.Exec(uref(1, mem.Load, 0x100008))
	if rep.OSTLBRefs != os {
		t.Error("TLB hit ran the handler")
	}
}

func TestRAMpageFaultChargesPageTransfer(t *testing.T) {
	r := testRAMpage(t, 200, 4096, false)
	if _, err := r.Exec(uref(1, mem.Load, 0x100000)); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.PageFaults != 1 {
		t.Fatalf("PageFaults = %d, want 1", rep.PageFaults)
	}
	// The 4KB page transfer is 2610ns = 522 cycles at 200MHz.
	if rep.LevelTime[stats.DRAM] != 522 {
		t.Errorf("DRAM time = %d cycles, want 522", rep.LevelTime[stats.DRAM])
	}
	if rep.OSFaultRefs == 0 || rep.OSTLBRefs == 0 {
		t.Error("fault/TLB handler traces not executed")
	}
}

func TestRAMpageSmallPagesShrinkTLBReach(t *testing.T) {
	// Figure 4: with 128B SRAM pages the 64-entry TLB covers only 8KB,
	// so a strided walk produces far more handler overhead than with
	// 4KB pages.
	run := func(page uint64) float64 {
		r := testRAMpage(t, 200, page, false)
		for i := 0; i < 4000; i++ {
			if _, err := r.Exec(uref(1, mem.Load, uint64(0x100000+i*512))); err != nil {
				t.Fatal(err)
			}
		}
		return r.Report().OverheadRatio()
	}
	small, big := run(128), run(4096)
	if small <= 2*big {
		t.Errorf("overhead ratio 128B=%.3f should far exceed 4KB=%.3f", small, big)
	}
}

func TestRAMpageReplacementPurgesL1(t *testing.T) {
	// After SRAM fills, a fault must evict a page and purge its blocks
	// from L1 (no stale physical blocks may hit).
	r, err := NewRAMpage(RAMpageConfig{
		Params:    DefaultParams(200),
		SRAMBytes: 64 << 10, // small: forces replacement quickly
		PageBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Touch many pages with stores, cycling far beyond capacity.
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < 32; i++ {
			if _, err := r.Exec(uref(1, mem.Store, uint64(0x100000+i*4096))); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep := r.Report()
	if rep.PageFaults <= 32 {
		t.Errorf("PageFaults = %d, want > 32 (replacement thrash)", rep.PageFaults)
	}
	if rep.Writebacks == 0 {
		t.Error("dirty pages never written back to DRAM")
	}
}

// --- Scheduler ---

func seqReader(n int, base uint64) trace.Reader {
	refs := make([]mem.Ref, n)
	for i := range refs {
		refs[i] = mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(base + uint64(i*4)%1024)}
	}
	return trace.NewSliceReader(refs)
}

func TestSchedulerRunsAllRefs(t *testing.T) {
	b := testBaseline(t, 200, 128)
	s, err := NewScheduler(b, []trace.Reader{seqReader(1000, 0x400000), seqReader(1000, 0x400000)},
		SchedulerConfig{Quantum: 100})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BenchRefs != 2000 {
		t.Errorf("BenchRefs = %d, want 2000", rep.BenchRefs)
	}
	if rep.Switches == 0 {
		t.Error("no context switches with quantum 100 over 2000 refs")
	}
}

func TestSchedulerSwitchTrace(t *testing.T) {
	run := func(insert bool) *stats.Report {
		b := testBaseline(t, 200, 128)
		s, _ := NewScheduler(b, []trace.Reader{seqReader(500, 0x400000), seqReader(500, 0x400000)},
			SchedulerConfig{Quantum: 100, InsertSwitchTrace: insert})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	with, without := run(true), run(false)
	if with.OSSwitchRefs == 0 {
		t.Error("switch trace not interleaved")
	}
	if without.OSSwitchRefs != 0 {
		t.Error("switch trace interleaved when disabled")
	}
	if with.Cycles <= without.Cycles {
		t.Error("switch trace did not add time")
	}
}

func TestSchedulerMaxRefs(t *testing.T) {
	b := testBaseline(t, 200, 128)
	s, _ := NewScheduler(b, []trace.Reader{seqReader(100000, 0x400000)}, SchedulerConfig{MaxRefs: 500})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BenchRefs != 500 {
		t.Errorf("BenchRefs = %d, want 500 (MaxRefs)", rep.BenchRefs)
	}
}

func TestSchedulerSwitchOnMissBlocksAndResumes(t *testing.T) {
	// Two processes with disjoint footprints on a RAMpage-CS machine:
	// faults must block one while the other runs, and everything must
	// still complete.
	r := testRAMpage(t, 4000, 4096, true)
	mkProc := func(base uint64) trace.Reader {
		var refs []mem.Ref
		for i := 0; i < 2000; i++ {
			refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(base + uint64(i*256))})
			refs = append(refs, mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%256)})
		}
		return trace.NewSliceReader(refs)
	}
	s, _ := NewScheduler(r, []trace.Reader{mkProc(0x1000000), mkProc(0x8000000)},
		SchedulerConfig{Quantum: 1000, InsertSwitchTrace: true})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BenchRefs != 8000 {
		t.Errorf("BenchRefs = %d, want 8000", rep.BenchRefs)
	}
	if rep.SwitchesOnMiss == 0 {
		t.Error("no switches on miss despite faults")
	}
	if rep.PageFaults == 0 {
		t.Error("no page faults")
	}
}

func TestSwitchOnMissOverlapsDRAM(t *testing.T) {
	// With several processes, switch-on-miss must beat stalling: the
	// DRAM transfers overlap other processes' execution (§5.4).
	// Each process streams sequentially through its own region: a page
	// fault every 128 data references (1KB page, 8B elements), far
	// apart enough for a fill-in process to do useful work during the
	// ~3.5us transfer.
	mkReaders := func() []trace.Reader {
		var rs []trace.Reader
		for p := 0; p < 4; p++ {
			var refs []mem.Ref
			base := uint64(0x1000000 * (p + 1))
			for i := 0; i < 12000; i++ {
				refs = append(refs, mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%512)})
				refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(base + uint64(i)*8)})
			}
			rs = append(rs, trace.NewSliceReader(refs))
		}
		return rs
	}
	run := func(switchOnMiss bool) mem.Cycles {
		r := testRAMpage(t, 4000, 1024, switchOnMiss)
		s, _ := NewScheduler(r, mkReaders(), SchedulerConfig{Quantum: 5000, InsertSwitchTrace: true})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.PageFaults == 0 {
			t.Fatal("workload produced no faults")
		}
		return rep.Cycles
	}
	stall, overlap := run(false), run(true)
	if overlap >= stall {
		t.Errorf("switch-on-miss (%d cycles) not faster than stalling (%d)", overlap, stall)
	}
}

func TestSchedulerSingleProcessSwitchOnMiss(t *testing.T) {
	// With one process there is nothing to overlap with: the scheduler
	// must idle-wait for pages, not deadlock.
	r := testRAMpage(t, 1000, 4096, true)
	var refs []mem.Ref
	for i := 0; i < 200; i++ {
		refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(0x1000000 + uint64(i)*8192)})
	}
	s, _ := NewScheduler(r, []trace.Reader{trace.NewSliceReader(refs)},
		SchedulerConfig{Quantum: 1000})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BenchRefs != 200 {
		t.Errorf("BenchRefs = %d, want 200", rep.BenchRefs)
	}
	if rep.IdleCycles == 0 {
		t.Error("single-process CS-on-miss never idled for DRAM")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *stats.Report {
		r := testRAMpage(t, 800, 512, true)
		readers := []trace.Reader{seqReader(3000, 0x400000), seqReader(3000, 0x500000)}
		s, _ := NewScheduler(r, readers, SchedulerConfig{Quantum: 700, InsertSwitchTrace: true, Seed: 11})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.PageFaults != b.PageFaults || a.TLBMisses != b.TLBMisses {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err == nil {
		t.Error("zero params validated")
	}
	p := DefaultParams(200)
	if err := p.Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	p.TLBEntries = 0
	if err := p.Validate(); err == nil {
		t.Error("zero TLB entries validated")
	}
}

func TestNewBaselineErrors(t *testing.T) {
	cfg := BaselineConfig{Params: DefaultParams(200)}
	if _, err := NewBaseline(cfg); err == nil {
		t.Error("baseline without L2 config accepted")
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	b := testBaseline(t, 200, 128)
	if _, err := NewScheduler(b, nil, SchedulerConfig{}); err == nil {
		t.Error("scheduler with no processes accepted")
	}
}

func TestKernelAddressOutOfRange(t *testing.T) {
	b := testBaseline(t, 200, 128)
	bad := mem.Ref{PID: mem.KernelPID, Kind: mem.Load, Addr: 0x1000}
	if err := b.ExecTrace([]mem.Ref{bad}, ClassSwitch); err == nil {
		t.Error("kernel reference outside reserved region accepted")
	}
}

// --- Integration: a scaled Table 2 workload runs end to end ---

func table2Readers(t *testing.T, refScale, sizeScale float64) []trace.Reader {
	t.Helper()
	var readers []trace.Reader
	for _, p := range synth.Table2() {
		g, err := synth.NewGenerator(p, synth.Options{
			Seed: 42, RefScale: refScale, SizeScale: sizeScale,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		readers = append(readers, g)
	}
	return readers
}

func TestIntegrationBaselineVsRAMpage(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	const refScale, sizeScale = 0.0005, 1.0 / 16
	quantum := uint64(2000)

	runBaseline := func() *stats.Report {
		b, err := NewBaseline(BaselineConfig{
			Params:  DefaultParams(4000),
			L2Bytes: 256 << 10, L2Block: 512, L2Assoc: 1,
			DRAMBytes: 32 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := NewScheduler(b, table2Readers(t, refScale, sizeScale), SchedulerConfig{Quantum: quantum})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	runRAMpage := func() *stats.Report {
		r, err := NewRAMpage(RAMpageConfig{
			Params:    DefaultParams(4000),
			SRAMBytes: 256<<10 + 2<<10, // + tag bonus for 512B blocks
			PageBytes: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := NewScheduler(r, table2Readers(t, refScale, sizeScale), SchedulerConfig{Quantum: quantum})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base, rp := runBaseline(), runRAMpage()
	if base.BenchRefs != rp.BenchRefs {
		t.Errorf("ref counts differ: baseline %d, rampage %d", base.BenchRefs, rp.BenchRefs)
	}
	// Sanity, not a strict performance assertion at this tiny scale:
	// both must see real memory-system activity.
	if base.L2Misses == 0 || rp.PageFaults == 0 {
		t.Errorf("degenerate run: L2Misses=%d faults=%d", base.L2Misses, rp.PageFaults)
	}
	t.Logf("baseline: %v", base)
	t.Logf("rampage:  %v", rp)
}
