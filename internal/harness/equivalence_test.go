package harness

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/oracle"
	"rampage/internal/stats"
	"rampage/internal/trace"
)

// equivSpecs covers every SystemKind plus the scheduler features that
// interact with batching: switch traces, switch-on-miss blocking,
// lightweight threads and the adaptive epoch controller.
var equivSpecs = []RunSpec{
	{System: BaselineDM, IssueMHz: 1000, SizeBytes: 128},
	{System: TwoWayL2, IssueMHz: 4000, SizeBytes: 1024, SwitchTrace: true},
	{System: RAMpage, IssueMHz: 1000, SizeBytes: 1024},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 128, SwitchTrace: true, LightweightThreads: true},
	{System: RAMpage, IssueMHz: 4000, SizeBytes: 512, AdaptivePages: true},
}

// referenceRun is Run with sim.Scheduler replaced by the oracle's
// reference scheduler: the same machine, driven one Exec at a time
// over freshly generated streams. Every production path is compared
// against it.
func referenceRun(t *testing.T, cfg Config, spec RunSpec) *stats.Report {
	t.Helper()
	readers, err := cfg.Readers()
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Normalized()
	m, err := newMachine(cfg, spec, len(readers))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := oracle.Schedule(context.Background(), m, readers, schedulerConfig(cfg, spec))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return rep
}

// capturedReaders replays the configuration's workload from captured
// columns, as every cell of a multi-cell call does.
func capturedReaders(t *testing.T, cfg Config) []trace.Reader {
	t.Helper()
	bufs := preloadWorkload(cfg, 2)
	if bufs == nil {
		t.Fatal("workload could not be captured in columns")
	}
	readers := make([]trace.Reader, len(bufs))
	for i, b := range bufs {
		readers[i] = trace.NewColumnarReader(b)
	}
	return readers
}

// shortBatches caps every ReadBatch at n references, so the scheduler's
// refill window is reloaded in windows of at most n.
type shortBatches struct {
	trace.Reader
	n int
}

func (s shortBatches) ReadBatch(dst []mem.Ref) (int, error) {
	return trace.ReadBatch(s.Reader, dst[:min(len(dst), s.n)])
}

// refillRun is Run with every generated stream read in batches of at
// most n references.
func refillRun(t *testing.T, cfg Config, spec RunSpec, n int) *stats.Report {
	t.Helper()
	readers, err := cfg.Readers()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range readers {
		readers[i] = shortBatches{r, n}
	}
	rep, err := runWithReaders(context.Background(), cfg, spec, readers)
	if err != nil {
		t.Fatalf("refilled run: %v", err)
	}
	return rep
}

// runAllPaths executes one spec under the reference scheduler, through
// sim.Scheduler's refill window (Run over the generators) and over
// captured columns (the sweep path), and fails unless all three
// reports are bit-identical.
func runAllPaths(t *testing.T, cfg Config, spec RunSpec) {
	t.Helper()
	want := referenceRun(t, cfg, spec)
	refilled, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("refilled run: %v", err)
	}
	if !reflect.DeepEqual(refilled, want) {
		t.Errorf("refilled report diverges from the reference scheduler:\nreference: %+v\nrefilled:  %+v", want, refilled)
	}
	captured, err := runWithReaders(context.Background(), cfg, spec, capturedReaders(t, cfg))
	if err != nil {
		t.Fatalf("captured run: %v", err)
	}
	if !reflect.DeepEqual(captured, want) {
		t.Errorf("captured report diverges from the reference scheduler:\nreference: %+v\ncaptured:  %+v", want, captured)
	}
}

// TestBatchedPathEquivalence asserts the batched scheduler pipeline —
// refilled and captured alike — produces bit-identical reports to the
// reference scheduler for all four systems (plus the threads and
// adaptive extensions).
func TestBatchedPathEquivalence(t *testing.T) {
	cfg := tinyConfig()
	for _, spec := range equivSpecs {
		spec := spec
		name := spec.System.String()
		if spec.LightweightThreads {
			name += "-threads"
		}
		if spec.AdaptivePages {
			name += "-adaptive"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runAllPaths(t, cfg, spec)
		})
	}
}

// TestBatchedPathEquivalenceBatchSizes sweeps the size of the batches
// the streams deliver into the refill window — including a degenerate
// single-reference batch and one spanning whole quanta — on the system
// with the most scheduler interaction.
func TestBatchedPathEquivalenceBatchSizes(t *testing.T) {
	cfg := tinyConfig()
	spec := RunSpec{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true}
	want := referenceRun(t, cfg, spec)
	for _, batch := range []uint64{1, 7, 64, cfg.Quantum} {
		batch := batch
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			t.Parallel()
			if got := refillRun(t, cfg, spec, int(batch)); !reflect.DeepEqual(got, want) {
				t.Errorf("reports diverge:\nreference: %+v\nrefilled:  %+v", want, got)
			}
		})
	}
}

// TestBatchedPathEquivalenceMaxRefs checks that the MaxRefs cutoff
// lands on the same reference on every path, including when it falls
// mid-window.
func TestBatchedPathEquivalenceMaxRefs(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxRefs = 12_345
	runAllPaths(t, cfg, RunSpec{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true})
}

// TestSweepPreloadEquivalence pins Sweep's materialized-workload
// replay against direct Run calls (which regenerate their streams):
// every grid cell must be bit-identical.
func TestSweepPreloadEquivalence(t *testing.T) {
	cfg := tinyConfig()
	rates := []uint64{1000, 4000}
	sizes := []uint64{128, 1024}
	grid, err := Sweep(context.Background(), cfg, RAMpageCS, rates, sizes, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range rates {
		for j, size := range sizes {
			direct, err := Run(context.Background(), cfg, RunSpec{System: RAMpageCS, IssueMHz: rate, SizeBytes: size, SwitchTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(grid[i][j], direct) {
				t.Errorf("cell %dMHz/%dB diverges from direct run:\nsweep: %+v\ndirect: %+v", rate, size, grid[i][j], direct)
			}
		}
	}
}

// TestRunCellsCaptureRule pins when the cell pool captures a workload:
// only when the capture will be reused. A one-cell call captures when
// the workload cache has room to keep it, and the next call replays
// the kept capture; on a full cache a one-cell call generates through
// the refill window instead, while a call of two or more cells still
// captures. Every call reports what direct Runs do.
func TestRunCellsCaptureRule(t *testing.T) {
	ctx := context.Background()
	specs := []RunSpec{
		{System: RAMpage, IssueMHz: 1000, SizeBytes: 1024},
		{System: BaselineDM, IssueMHz: 4000, SizeBytes: 256},
	}
	// Seeds no other test uses, so neither workload is cached yet.
	room, full := tinyConfig(), tinyConfig()
	room.Seed, full.Seed = 0x5eed01, 0x5eed02
	keyOf := func(cfg Config) workloadKey {
		return workloadKey{seed: cfg.Seed, refScale: cfg.RefScale, sizeScale: cfg.SizeScale}
	}
	cached := func(cfg Config) []*trace.ColumnarBuffer {
		v, ok := workloadCache.Load(keyOf(cfg))
		if !ok {
			return nil
		}
		return v.([]*trace.ColumnarBuffer)
	}
	saved := workloadCacheLen.Load()
	t.Cleanup(func() {
		workloadCache.Delete(keyOf(room))
		workloadCacheLen.Store(saved)
	})
	check := func(cfg Config, specs []RunSpec) {
		t.Helper()
		got, err := RunCells(ctx, cfg, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, spec := range specs {
			rep, err := Run(ctx, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := NewReportJSON(rep); !reflect.DeepEqual(got[k], want) {
				t.Errorf("seed %#x cell %d diverges from a direct run:\npool: %+v\nrun:  %+v", cfg.Seed, k, got[k], want)
			}
		}
	}

	workloadCacheLen.Store(0)
	check(room, specs[:1])
	kept := cached(room)
	if kept == nil {
		t.Fatal("a one-cell call with room in the cache kept no capture")
	}
	workloadCacheLen.Store(workloadCacheCap)
	if got := preloadWorkload(room, 1); len(got) == 0 || got[0] != kept[0] {
		t.Error("a one-cell call does not replay the kept capture")
	}
	check(room, specs[1:])
	if got := cached(room); got[0] != kept[0] {
		t.Error("the kept capture was replaced")
	}

	if bufs := preloadWorkload(full, 1); bufs != nil {
		t.Error("a one-cell call on a full cache captured its workload")
	}
	check(full, specs[:1])
	if bufs := preloadWorkload(full, 2); bufs == nil {
		t.Error("a two-cell call on a full cache captured nothing")
	}
	check(full, specs)
	if cached(full) != nil {
		t.Error("a full cache kept a capture")
	}
}

// FuzzBatchEquivalence fuzzes (seed, stream batch size, issue rate,
// page size) through the switch-on-miss system, asserting bit-identical
// reports between the refilled scheduler path and the reference
// scheduler. The seed corpus pins the batch sizes {1, 7, 64, quantum},
// so `go test` always replays them even when no fuzz engine is
// attached.
func FuzzBatchEquivalence(f *testing.F) {
	quantum := QuickScaled().Quantum
	f.Add(uint64(42), uint64(1), uint64(4000), uint64(512))
	f.Add(uint64(42), uint64(7), uint64(4000), uint64(512))
	f.Add(uint64(42), uint64(64), uint64(1000), uint64(128))
	f.Add(uint64(42), quantum, uint64(4000), uint64(1024))
	f.Add(uint64(7), uint64(13), uint64(2000), uint64(256))
	f.Fuzz(func(t *testing.T, seed, batch, rateMHz, pageBytes uint64) {
		cfg := tinyConfig()
		cfg.Seed = seed
		cfg.Processes = 4
		cfg.MaxRefs = 30_000
		rates := []uint64{200, 1000, 2000, 4000}
		sizes := []uint64{128, 256, 512, 1024, 2048, 4096}
		spec := RunSpec{
			System:      RAMpageCS,
			IssueMHz:    rates[rateMHz%uint64(len(rates))],
			SizeBytes:   sizes[pageBytes%uint64(len(sizes))],
			SwitchTrace: true,
		}
		want := referenceRun(t, cfg, spec)
		got := refillRun(t, cfg, spec, int(1+batch%uint64(2*quantum)))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reports diverge:\nreference: %+v\nrefilled:  %+v", want, got)
		}
	})
}
