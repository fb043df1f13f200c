package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
	"rampage/internal/metrics"
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
	m, err := NewMachine(cfg, spec, len(readers))
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

// shortBatches caps every column batch at n references, so the
// scheduler's refill window is reloaded from the generator's column
// loop in windows of at most n.
type shortBatches struct {
	trace.ColumnReader
	n int
}

func (s shortBatches) ReadColumns(kinds []mem.RefKind, addrs []mem.VAddr) (int, error) {
	n := min(len(kinds), s.n)
	return s.ColumnReader.ReadColumns(kinds[:n], addrs[:n])
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
		readers[i] = shortBatches{r.(trace.ColumnReader), n}
	}
	rep, err := runWithReaders(context.Background(), cfg, spec, readers, "")
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
	captured, err := runWithReaders(context.Background(), cfg, spec, capturedReaders(t, cfg), "")
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

// TestSweepPreloadEquivalence pins SweepSpec's materialized-workload
// replay against direct Run calls (which regenerate their streams):
// every grid cell must be bit-identical.
func TestSweepPreloadEquivalence(t *testing.T) {
	cfg := tinyConfig()
	rates := []uint64{1000, 4000}
	sizes := []uint64{128, 1024}
	grid, err := SweepSpec(context.Background(), cfg, RunSpec{System: RAMpageCS, SwitchTrace: true}, rates, sizes)
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
// only when cells will read the capture and it will be reused. A
// one-cell call captures when the workload cache has room to keep it,
// and the next call replays the kept capture; on a full cache a
// one-cell call generates through the refill window instead, while a
// call of two or more cells still captures. Cells planned complete do
// not count: on a full cache a call whose every cell restores a
// complete checkpoint captures nothing, one complete cell beside one
// cold cell generates the cold one through the refill window, and a
// cell planned complete whose record turns out corrupt runs cold.
// Every call reports what direct cold Runs do.
func TestRunCellsCaptureRule(t *testing.T) {
	ctx := context.Background()
	specs := []RunSpec{
		{System: RAMpage, IssueMHz: 1000, SizeBytes: 1024},
		{System: BaselineDM, IssueMHz: 4000, SizeBytes: 256},
	}
	// Seeds no other test uses, so no workload is cached yet.
	room, full, warm := tinyConfig(), tinyConfig(), tinyConfig()
	room.Seed, full.Seed, warm.Seed = 0x5eed01, 0x5eed02, 0x5eed03
	cached := func(cfg Config) []*trace.ColumnarBuffer {
		v, ok := workloadCache.Load(workloadKeyOf(cfg))
		if !ok {
			return nil
		}
		return v.([]*trace.ColumnarBuffer)
	}
	saved := workloadCacheLen.Load()
	t.Cleanup(func() {
		workloadCache.Delete(workloadKeyOf(room))
		workloadCacheLen.Store(saved)
	})
	// check runs specs through the pool and compares every cell with a
	// direct cold Run; it returns how many workloads the call captured.
	check := func(cfg Config, specs []RunSpec) uint64 {
		t.Helper()
		before := WorkloadCaptures()
		got, err := RunCells(ctx, cfg, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		captures := WorkloadCaptures() - before
		cold := cfg
		cold.Checkpoints = nil
		for k, spec := range specs {
			rep, err := Run(ctx, cold, spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := NewReportJSON(rep); !reflect.DeepEqual(got[k], want) {
				t.Errorf("seed %#x cell %d diverges from a direct run:\npool: %+v\nrun:  %+v", cfg.Seed, k, got[k], want)
			}
		}
		return captures
	}

	workloadCacheLen.Store(0)
	if n := check(room, specs[:1]); n != 1 {
		t.Errorf("a one-cell call with room in the cache took %d captures, want 1", n)
	}
	kept := cached(room)
	if kept == nil {
		t.Fatal("a one-cell call with room in the cache kept no capture")
	}
	workloadCacheLen.Store(workloadCacheCap)
	if got := preloadWorkload(room, 1); len(got) == 0 || got[0] != kept[0] {
		t.Error("a one-cell call does not replay the kept capture")
	}
	if got := preloadWorkload(room, 0); len(got) == 0 || got[0] != kept[0] {
		t.Error("a call with no readers does not replay the kept capture")
	}
	if n := check(room, specs[1:]); n != 0 {
		t.Errorf("a call over a kept capture took %d captures", n)
	}
	if got := cached(room); got[0] != kept[0] {
		t.Error("the kept capture was replaced")
	}

	if bufs := preloadWorkload(full, 1); bufs != nil {
		t.Error("a one-cell call on a full cache captured its workload")
	}
	if n := check(full, specs[:1]); n != 0 {
		t.Errorf("a one-cell call on a full cache took %d captures", n)
	}
	if n := check(full, specs); n != 1 {
		t.Errorf("a two-cell call on a full cache took %d captures, want 1", n)
	}
	if cached(full) != nil {
		t.Error("a full cache kept a capture")
	}

	// Cells planned complete: every checkpoint is stored by a direct
	// Run, which never captures.
	put := func(cfg Config, spec RunSpec) {
		t.Helper()
		if _, err := Run(ctx, cfg, spec); err != nil {
			t.Fatal(err)
		}
	}
	inMem := warm
	inMem.Checkpoints = memCheckpoints(t, nil)
	put(inMem, specs[0])
	if n := check(inMem, specs); n != 0 {
		t.Errorf("one complete cell beside one cold cell took %d captures on a full cache", n)
	}
	put(inMem, specs[1])
	if plan := PlanCells(inMem, specs); plan.Complete != len(specs) {
		t.Fatalf("%d of %d cells planned complete", plan.Complete, len(specs))
	}
	if n := check(inMem, specs); n != 0 {
		t.Errorf("an all-complete call took %d captures on a full cache", n)
	}

	// A budget smaller than any checkpoint keeps records on disk only,
	// where one of them is corrupted after planning can see it.
	dir := t.TempDir()
	svc := &metrics.ServiceStats{}
	disk := warm
	var err error
	if disk.Checkpoints, err = checkpoint.NewStore(1, dir, svc); err != nil {
		t.Fatal(err)
	}
	put(disk, specs[0])
	records, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(records) != 1 {
		t.Fatalf("records = %v, want the first cell's checkpoint", records)
	}
	rec, err := os.ReadFile(records[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(rec, binary.LittleEndian.AppendUint32(nil, checkpoint.MarkReport))
	if at < 0 {
		t.Fatal("record holds no report section")
	}
	rec[at+4] ^= 1
	if err := os.WriteFile(records[0], rec, 0o644); err != nil {
		t.Fatal(err)
	}
	put(disk, specs[1])
	if plan := PlanCells(disk, specs); plan.Complete != len(specs) {
		t.Fatalf("%d of %d cells over the corrupt record planned complete", plan.Complete, len(specs))
	}
	hits, misses := svc.Get(metrics.SvcCkptHit), svc.Get(metrics.SvcCkptMiss)
	if n := check(disk, specs); n != 0 {
		t.Errorf("an all-complete call over a corrupt record took %d captures on a full cache", n)
	}
	if h, m := svc.Get(metrics.SvcCkptHit)-hits, svc.Get(metrics.SvcCkptMiss)-misses; h != 1 || m != 1 {
		t.Errorf("checkpoint hits/misses over the corrupt record = %d/%d, want 1/1", h, m)
	}
}

// TestWorkloadCacheStaysWithinCap races captures for the cache's last
// slot: with one slot free, eight concurrent one-cell captures on
// distinct workloads must leave exactly one new entry, and the
// cache's count at its cap.
func TestWorkloadCacheStaysWithinCap(t *testing.T) {
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = tinyConfig()
		cfgs[i].Seed = 0x5eed10 + uint64(i)
	}
	saved := workloadCacheLen.Load()
	t.Cleanup(func() {
		for _, cfg := range cfgs {
			workloadCache.Delete(workloadKeyOf(cfg))
		}
		workloadCacheLen.Store(saved)
	})
	workloadCacheLen.Store(workloadCacheCap - 1)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			preloadWorkload(cfg, 1)
		}()
	}
	close(start)
	wg.Wait()
	kept := 0
	for _, cfg := range cfgs {
		if _, ok := workloadCache.Load(workloadKeyOf(cfg)); ok {
			kept++
		}
	}
	if kept != 1 {
		t.Errorf("%d of 8 racing captures were kept in the cache's one free slot", kept)
	}
	if n := workloadCacheLen.Load(); n != workloadCacheCap {
		t.Errorf("workloadCacheLen = %d, want the cap %d", n, workloadCacheCap)
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
