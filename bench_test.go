// Benchmarks that regenerate every table and figure of the paper, one
// testing.B benchmark per artifact, plus component micro-benchmarks.
//
// The artifact benchmarks run the corresponding experiment at the
// quick scale with a reduced sweep so `go test -bench=.` completes in
// minutes; they report simulated-seconds and headline ratios as custom
// metrics. For publication-quality sweeps use:
//
//	go run ./cmd/rampage-bench -exp all -scale default
package rampage_test

import (
	"context"
	"testing"

	"rampage"
	"rampage/internal/checkpoint"
	"rampage/internal/harness"
	"rampage/internal/mem"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// benchRates and benchSizes keep artifact benchmarks fast while
// preserving the sweep endpoints the paper's claims hinge on.
var (
	benchRates = []uint64{200, 4000}
	benchSizes = []uint64{128, 1024, 4096}
)

func benchConfig() rampage.Config { return rampage.QuickScaled() }

// runExperiment drives one registry experiment per iteration. One
// untimed warm-up run precedes the measurement: it populates the
// harness's cross-sweep workload cache (and the page-table arena), so
// timed iterations measure steady-state simulation rather than a mix
// of one cold cell and N-1 warm ones — the cold/warm split is what
// made the ablation benches swing by 2x between runs.
func runExperiment(b *testing.B, id string, rates, sizes []uint64) {
	b.Helper()
	exp, ok := rampage.FindExperiment(id)
	if !ok {
		b.Fatalf("experiment %q missing", id)
	}
	cfg := benchConfig()
	if _, err := exp.Run(context.Background(), cfg, rates, sizes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(context.Background(), cfg, rates, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact ---

// BenchmarkTable1Efficiency regenerates Table 1 (Direct Rambus vs disk
// bandwidth efficiency). Analytic, so it also reports the headline
// §3.5 costs as metrics.
func BenchmarkTable1Efficiency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := rampage.Table1()
		last := table[len(table)-1]
		b.ReportMetric(float64(last.RambusCost1GHz), "rambus-4KB-insns")
		b.ReportMetric(float64(last.DiskCost1GHz)/1e6, "disk-4KB-Minsns")
	}
}

// BenchmarkTable2Workload generates the full interleaved Table 2
// workload at the benchmark scale and reports generator throughput.
func BenchmarkTable2Workload(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var refs uint64
	for i := 0; i < b.N; i++ {
		readers, err := cfg.Readers()
		if err != nil {
			b.Fatal(err)
		}
		il, err := trace.NewInterleaver(readers, cfg.Quantum)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := il.Next(); err != nil {
				break
			}
			refs++
		}
	}
	b.ReportMetric(float64(refs)/float64(b.N)/1e6, "Mrefs/run")
}

// BenchmarkTable3BaselineVsRAMpage regenerates the Table 3 comparison
// (direct-mapped L2 vs RAMpage) over the reduced sweep and reports the
// best-vs-best RAMpage speedup at each endpoint rate.
func BenchmarkTable3BaselineVsRAMpage(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := rampage.Sweep(context.Background(), cfg, rampage.SystemBaselineDM, benchRates, benchSizes, false)
		if err != nil {
			b.Fatal(err)
		}
		rp, err := rampage.Sweep(context.Background(), cfg, rampage.SystemRAMpage, benchRates, benchSizes, false)
		if err != nil {
			b.Fatal(err)
		}
		_, b200 := harness.Best(base[0])
		_, r200 := harness.Best(rp[0])
		_, b4000 := harness.Best(base[len(benchRates)-1])
		_, r4000 := harness.Best(rp[len(benchRates)-1])
		b.ReportMetric(float64(b200.Cycles)/float64(r200.Cycles), "speedup@200MHz")
		b.ReportMetric(float64(b4000.Cycles)/float64(r4000.Cycles), "speedup@4GHz")
	}
}

// BenchmarkTable4SwitchOnMiss regenerates Table 4 (RAMpage with
// context switches on misses) and reports the best-time speedup over
// plain RAMpage at 4GHz — the paper's headline "up to 16%".
func BenchmarkTable4SwitchOnMiss(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := rampage.Sweep(context.Background(), cfg, rampage.SystemRAMpageCS, benchRates, benchSizes, true)
		if err != nil {
			b.Fatal(err)
		}
		plain, err := rampage.Sweep(context.Background(), cfg, rampage.SystemRAMpage, benchRates, benchSizes, false)
		if err != nil {
			b.Fatal(err)
		}
		_, bc := harness.Best(cs[len(benchRates)-1])
		_, bp := harness.Best(plain[len(benchRates)-1])
		b.ReportMetric(float64(bp.Cycles)/float64(bc.Cycles), "cs-speedup@4GHz")
	}
}

// BenchmarkTable5TwoWayL2 regenerates Table 5 (2-way associative L2
// with context-switch traces).
func BenchmarkTable5TwoWayL2(b *testing.B) {
	runExperiment(b, "table5", benchRates, benchSizes)
}

// BenchmarkFig2LevelBreakdown200MHz regenerates Figure 2 (fraction of
// time per level at 200MHz).
func BenchmarkFig2LevelBreakdown200MHz(b *testing.B) {
	runExperiment(b, "fig2", nil, benchSizes)
}

// BenchmarkFig3LevelBreakdown4GHz regenerates Figure 3 (fraction of
// time per level at 4GHz).
func BenchmarkFig3LevelBreakdown4GHz(b *testing.B) {
	runExperiment(b, "fig3", nil, benchSizes)
}

// BenchmarkFig4Overheads regenerates Figure 4 (TLB miss + page fault
// handling overhead ratios) and reports the RAMpage overhead at the
// extreme page sizes.
func BenchmarkFig4Overheads(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := rampage.Sweep(context.Background(), cfg, rampage.SystemRAMpage, []uint64{1000}, benchSizes, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rp[0][0].OverheadRatio(), "overhead@128B")
		b.ReportMetric(rp[0][len(benchSizes)-1].OverheadRatio(), "overhead@4KB")
	}
}

// BenchmarkFig5RelativeSpeed regenerates Figure 5 (RAMpage-CS vs 2-way
// L2 relative speed across CPU speeds).
func BenchmarkFig5RelativeSpeed(b *testing.B) {
	runExperiment(b, "fig5", benchRates, benchSizes)
}

// --- Ablation benches (DESIGN.md X1-X3 and the aggressive-L1 probe) ---

func BenchmarkAblationBigTLB(b *testing.B) {
	runExperiment(b, "bigtlb", benchRates, benchSizes)
}

func BenchmarkAblationPipelinedRambus(b *testing.B) {
	runExperiment(b, "pipelined", benchRates, benchSizes)
}

func BenchmarkAblationVictimCache(b *testing.B) {
	runExperiment(b, "victim", benchRates, benchSizes)
}

func BenchmarkAblationAggressiveL1(b *testing.B) {
	runExperiment(b, "biglone", benchRates, benchSizes)
}

func BenchmarkExtensionSDRAM(b *testing.B) {
	runExperiment(b, "sdram", benchRates, benchSizes)
}

func BenchmarkExtensionThreads(b *testing.B) {
	runExperiment(b, "threads", benchRates, benchSizes)
}

func BenchmarkExtensionAdaptive(b *testing.B) {
	runExperiment(b, "adaptive", []uint64{4000}, benchSizes)
}

func BenchmarkExtensionChannels(b *testing.B) {
	runExperiment(b, "channels", benchRates, benchSizes)
}

func BenchmarkExtensionBankedRDRAM(b *testing.B) {
	runExperiment(b, "banked", benchRates, benchSizes)
}

// BenchmarkExtensionPrefetch reports the prefetch speedup and accuracy
// at 4GHz with 1KB pages.
func BenchmarkExtensionPrefetch(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err := rampage.Run(context.Background(), cfg, rampage.RunSpec{System: rampage.SystemRAMpage, IssueMHz: 4000, SizeBytes: 1024})
		if err != nil {
			b.Fatal(err)
		}
		pf, err := rampage.Run(context.Background(), cfg, rampage.RunSpec{System: rampage.SystemRAMpage, IssueMHz: 4000, SizeBytes: 1024, PrefetchNext: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(plain.Cycles)/float64(pf.Cycles), "prefetch-speedup")
		if pf.Prefetches > 0 {
			b.ReportMetric(float64(pf.PrefetchHits)/float64(pf.Prefetches), "prefetch-accuracy")
		}
	}
}

// --- Warm-state checkpoint benchmarks (make bench-checkpoint) ---

// checkpointBenchSweep is the sweep the cold/warm pair shares: the
// RAMpage artifact grid at the benchmark scale.
func checkpointBenchSweep(b *testing.B, cfg rampage.Config) {
	b.Helper()
	if _, err := rampage.Sweep(context.Background(), cfg, rampage.SystemRAMpage, benchRates, benchSizes, false); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepCheckpointCold times the sweep with a fresh checkpoint
// store every iteration: each cell simulates from scratch and captures
// its final state, so the delta over the storeless sweep benchmarks is
// the capture-and-store overhead.
func BenchmarkSweepCheckpointCold(b *testing.B) {
	cfg := benchConfig()
	cfg.Checkpoints = memCheckpoints(b)
	checkpointBenchSweep(b, cfg) // warm the workload cache, as runExperiment does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Checkpoints = memCheckpoints(b)
		checkpointBenchSweep(b, cfg)
	}
}

// BenchmarkSweepCheckpointWarm times the same sweep against a store
// populated by one untimed cold pass: every cell restores a final
// checkpoint and skips simulation entirely. The committed
// BENCH_checkpoint.json snapshot pins this at well over 3x faster than
// BenchmarkSweepCheckpointCold.
func BenchmarkSweepCheckpointWarm(b *testing.B) {
	cfg := benchConfig()
	cfg.Checkpoints = memCheckpoints(b)
	checkpointBenchSweep(b, cfg) // cold pass: populates the store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpointBenchSweep(b, cfg)
	}
}

// BenchmarkRunCheckpointResume times an incremental extension: an
// untimed half-budget run stores its state, and each iteration reaches
// the full budget by restoring and simulating only the second half —
// the single-run analogue of the service's "extend" jobs.
func BenchmarkRunCheckpointResume(b *testing.B) {
	spec := rampage.RunSpec{System: rampage.SystemRAMpage, IssueMHz: 1000, SizeBytes: 1024}
	cfg := benchConfig()
	cfg.MaxRefs = 1_000_000
	half := cfg
	half.Checkpoints = memCheckpoints(b)
	half.MaxRefs = cfg.MaxRefs / 2
	if _, err := rampage.Run(context.Background(), half, spec); err != nil {
		b.Fatal(err)
	}
	halfCk, _, ok := half.Checkpoints.Nearest(harness.CheckpointPrefixKey(cfg, spec), cfg.MaxRefs)
	if !ok {
		b.Fatal("half-budget run stored no checkpoint")
	}
	warm := cfg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh store holding only the half checkpoint: every iteration
		// resumes (the full-budget capture of the previous iteration would
		// otherwise turn the rest into complete restores).
		warm.Checkpoints = memCheckpoints(b)
		warm.Checkpoints.Put(halfCk)
		if _, err := rampage.Run(context.Background(), warm, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCheckpointComplete times a repeated request: an untimed
// full-budget run of BenchmarkRunCheckpointResume's spec stores its
// checkpoint, and each iteration is a Run answered by restoring it. A
// complete restore simulates nothing and reads no workload stream, so
// BENCH_checkpoint.json pins BenchmarkRunCheckpointResume at well over
// 3x slower.
func BenchmarkRunCheckpointComplete(b *testing.B) {
	spec := rampage.RunSpec{System: rampage.SystemRAMpage, IssueMHz: 1000, SizeBytes: 1024}
	cfg := benchConfig()
	cfg.MaxRefs = 1_000_000
	cfg.Checkpoints = memCheckpoints(b)
	if _, err := rampage.Run(context.Background(), cfg, spec); err != nil {
		b.Fatal(err)
	}
	if _, complete, ok := cfg.Checkpoints.Peek(harness.CheckpointPrefixKey(cfg, spec), cfg.MaxRefs); !ok || !complete {
		b.Fatal("the full-budget run stored no complete checkpoint")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rampage.Run(context.Background(), cfg, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks ---

// BenchmarkSimRAMpageThroughput measures simulator throughput in
// references per second on the RAMpage machine.
func BenchmarkSimRAMpageThroughput(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var refs uint64
	for i := 0; i < b.N; i++ {
		rep, err := rampage.Run(context.Background(), cfg, rampage.RunSpec{
			System: rampage.SystemRAMpage, IssueMHz: 1000, SizeBytes: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		refs += rep.BenchRefs + rep.OSRefs()
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkSimRAMpageCSThroughput measures simulator throughput on the
// switch-on-miss RAMpage machine at 4 GHz with 2 KB pages and the
// context-switch trace, where pages are in flight for much of the run.
func BenchmarkSimRAMpageCSThroughput(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var refs uint64
	for i := 0; i < b.N; i++ {
		rep, err := rampage.Run(context.Background(), cfg, rampage.RunSpec{
			System: rampage.SystemRAMpageCS, IssueMHz: 4000, SizeBytes: 2048, SwitchTrace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		refs += rep.BenchRefs + rep.OSRefs()
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkSimBaselineThroughput measures simulator throughput on the
// conventional machine.
func BenchmarkSimBaselineThroughput(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var refs uint64
	for i := 0; i < b.N; i++ {
		rep, err := rampage.Run(context.Background(), cfg, rampage.RunSpec{
			System: rampage.SystemBaselineDM, IssueMHz: 1000, SizeBytes: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		refs += rep.BenchRefs + rep.OSRefs()
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkGeneratorThroughput measures synthetic trace generation,
// restarting the (finite) stream whenever it runs dry.
func BenchmarkGeneratorThroughput(b *testing.B) {
	p, _ := rampage.FindProfile("swm256")
	mk := func() *synth.Generator {
		g, err := synth.NewGenerator(p, synth.Options{Seed: 1, RefScale: 1, SizeScale: 1.0 / 8})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	g := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Next(); err != nil {
			g = mk()
			i--
		}
	}
}

// BenchmarkWorkloadCapture captures the benchmark config's Table 2
// workload into columns as the cell pool's preload does: fresh
// generators, each drained by trace.CaptureColumnar sized by its
// Remaining().
func BenchmarkWorkloadCapture(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var refs uint64
	for i := 0; i < b.N; i++ {
		readers, err := cfg.Readers()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range readers {
			want := r.(interface{ Remaining() uint64 }).Remaining()
			buf, err := trace.CaptureColumnar(r, want)
			if err != nil || uint64(buf.Len()) != want {
				b.Fatalf("captured %v refs of %d: %v", buf, want, err)
			}
			refs += want
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
}

// BenchmarkTraceFileWrite measures the binary trace encoder.
func BenchmarkTraceFileWrite(b *testing.B) {
	w, err := trace.NewFileWriter(discard{})
	if err != nil {
		b.Fatal(err)
	}
	ref := mem.Ref{Kind: mem.IFetch, Addr: 0x400000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Addr += 4
		if err := w.Write(ref); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// memCheckpoints returns a memory-only checkpoint store with no
// budget.
func memCheckpoints(b *testing.B) *checkpoint.Store {
	b.Helper()
	s, err := checkpoint.NewStore(0, "", nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}
