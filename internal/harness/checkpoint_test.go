package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rampage/internal/cas"
	"rampage/internal/checkpoint"
	"rampage/internal/metrics"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// memCheckpoints returns a memory-only checkpoint store with no
// budget.
func memCheckpoints(tb testing.TB, svc *metrics.ServiceStats) *checkpoint.Store {
	tb.Helper()
	s, err := checkpoint.NewStore(0, "", svc)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// ckptTestConfig is a fast configuration with enough references to
// cross several quanta, page faults and TLB refills per system.
func ckptTestConfig() Config {
	cfg := QuickScaled()
	cfg.Processes = 4
	return cfg
}

// ckptTestSpecs covers every machine family: conventional direct-mapped
// and associative L2, RAMpage stall-on-miss, RAMpage switch-on-miss
// (with the switch trace, so the scheduler kernel RNG advances), and
// the adaptive controller.
func ckptTestSpecs() []RunSpec {
	return []RunSpec{
		{System: BaselineDM, IssueMHz: 1000, SizeBytes: 512},
		{System: TwoWayL2, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true},
		{System: RAMpage, IssueMHz: 1000, SizeBytes: 512},
		{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true},
		{System: RAMpage, IssueMHz: 1000, SizeBytes: 512, AdaptivePages: true},
	}
}

func specName(spec RunSpec) string {
	name := spec.System.String()
	if spec.AdaptivePages {
		name += "-adaptive"
	}
	return name
}

// TestCheckpointResumeMatchesScratch is the tentpole equivalence: a run
// warm-started from a mid-run checkpoint must produce a report
// bit-identical to the same run from scratch.
func TestCheckpointResumeMatchesScratch(t *testing.T) {
	for _, spec := range ckptTestSpecs() {
		spec := spec
		t.Run(specName(spec), func(t *testing.T) {
			t.Parallel()
			cfg := ckptTestConfig()
			cfg.MaxRefs = 240_000
			want, err := Run(context.Background(), cfg, spec)
			if err != nil {
				t.Fatalf("scratch run: %v", err)
			}

			store := memCheckpoints(t, nil)
			warm := cfg
			warm.Checkpoints = store
			warm.MaxRefs = 120_000
			if _, err := Run(context.Background(), warm, spec); err != nil {
				t.Fatalf("prefix run: %v", err)
			}
			if store.Len() != 1 {
				t.Fatalf("store holds %d checkpoints, want 1", store.Len())
			}
			warm.MaxRefs = 240_000
			got, err := Run(context.Background(), warm, spec)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if *got != *want {
				t.Errorf("resumed report differs from scratch:\n got: %+v\nwant: %+v", *got, *want)
			}
		})
	}
}

// TestCheckpointResumeCapturedAndVerify pins the restore path on the
// captured-column feed sweeps use and under the oracle invariant
// checker: a run warm-started from a mid-run checkpoint must match the
// reference scheduler's from-scratch report on every feed.
func TestCheckpointResumeCapturedAndVerify(t *testing.T) {
	spec := RunSpec{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 240_000
	want := referenceRun(t, cfg, spec)
	for _, mode := range []struct {
		name     string
		captured bool
		verify   bool
	}{
		{"captured", true, false},
		{"verify", false, true},
		{"captured-verify", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			warm := ckptTestConfig()
			warm.Checkpoints = memCheckpoints(t, nil)
			warm.Verify = mode.verify
			run := func(maxRefs uint64) (*stats.Report, error) {
				warm.MaxRefs = maxRefs
				if mode.captured {
					return runWithReaders(context.Background(), warm, spec, capturedReaders(t, warm), "")
				}
				return Run(context.Background(), warm, spec)
			}
			if _, err := run(120_000); err != nil {
				t.Fatalf("prefix run: %v", err)
			}
			got, err := run(240_000)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if *got != *want {
				t.Errorf("resumed %s report differs from the reference:\n got: %+v\nwant: %+v", mode.name, *got, *want)
			}
		})
	}
}

// TestCheckpointCompleteSkipsRun pins the warm full-restore path: after
// a run stores its final state, re-running the identical request is
// answered entirely from the checkpoint, and by the dominance rules a
// final checkpoint also answers any larger budget.
func TestCheckpointCompleteSkipsRun(t *testing.T) {
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 150_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}

	svc := &metrics.ServiceStats{}
	store := memCheckpoints(t, svc)
	warm := cfg
	warm.Checkpoints = store
	if _, err := Run(context.Background(), warm, spec); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if got := svc.Get(metrics.SvcCkptMiss); got != 1 {
		t.Errorf("cold run counted %d misses, want 1", got)
	}
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if *got != *want {
		t.Errorf("warm report differs from scratch:\n got: %+v\nwant: %+v", *got, *want)
	}
	if hits := svc.Get(metrics.SvcCkptHit); hits != 1 {
		t.Errorf("warm run counted %d hits, want 1", hits)
	}
	if store.Len() != 1 {
		t.Errorf("store holds %d checkpoints after a complete restore, want 1", store.Len())
	}
}

// TestCheckpointWorkloadsShareStore runs one spec on the Table 2
// workload and on the phased workload against one checkpoint store.
// The workload name is part of the prefix, so each run restores only
// its own checkpoint, and each warm report equals its cold run.
func TestCheckpointWorkloadsShareStore(t *testing.T) {
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	table2 := ckptTestConfig()
	table2.MaxRefs = 150_000
	phased := table2
	phased.ProfileName = synth.Phased
	svc := &metrics.ServiceStats{}
	store := memCheckpoints(t, svc)
	want := make([]*stats.Report, 2)
	for i, cfg := range []Config{table2, phased} {
		rep, err := Run(context.Background(), cfg, spec)
		if err != nil {
			t.Fatalf("scratch run %q: %v", cfg.ProfileName, err)
		}
		want[i] = rep
	}
	if want[0].Cycles == want[1].Cycles {
		t.Fatal("the phased workload runs like the Table 2 one; the test cannot tell them apart")
	}
	// Two cold runs (one capture per workload), then two warm ones.
	for round, wantHits := range []uint64{0, 2} {
		for i, cfg := range []Config{table2, phased} {
			cfg.Checkpoints = store
			got, err := Run(context.Background(), cfg, spec)
			if err != nil {
				t.Fatalf("round %d, %q: %v", round, cfg.ProfileName, err)
			}
			if *got != *want[i] {
				t.Errorf("round %d, %q: report differs from its cold run:\n got: %+v\nwant: %+v", round, cfg.ProfileName, *got, *want[i])
			}
		}
		if hits := svc.Get(metrics.SvcCkptHit); hits != wantHits {
			t.Errorf("after round %d: %d checkpoint hits, want %d", round, hits, wantHits)
		}
	}
	if store.Len() != 2 {
		t.Errorf("store holds %d checkpoints, want one per workload", store.Len())
	}
}

// TestCheckpointCorruptRecordRunsCold pins that a checkpoint record
// with one payload byte flipped is a miss: the run starts cold and
// reports what a fresh run reports, instead of resuming from corrupt
// state. The flipped byte is the low byte of the captured report's
// cycle count, which a restore would otherwise carry into the result.
func TestCheckpointCorruptRecordRunsCold(t *testing.T) {
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 240_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}

	// A budget smaller than any checkpoint: restores come from disk.
	dir := t.TempDir()
	svc := &metrics.ServiceStats{}
	store, err := checkpoint.NewStore(1, dir, svc)
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg
	warm.Checkpoints = store
	warm.MaxRefs = 120_000
	if _, err := Run(context.Background(), warm, spec); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	records, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(records) != 1 {
		t.Fatalf("records = %v, want the prefix run's checkpoint", records)
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

	warm.MaxRefs = 240_000
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("run over the corrupt record: %v", err)
	}
	if hits, misses := svc.Get(metrics.SvcCkptHit), svc.Get(metrics.SvcCkptMiss); hits != 0 || misses != 2 {
		t.Errorf("checkpoint hits/misses = %d/%d, want 0/2 (both runs cold)", hits, misses)
	}
	if *got != *want {
		t.Errorf("report over the corrupt record differs from a fresh run:\n got: %+v\nwant: %+v", *got, *want)
	}
}

// TestCheckpointFinalAtBudgetNotReused pins the dominance edge: a
// budget-capped run that happens to drain the workload exactly at its
// budget is final, and a later run with that same budget must NOT be
// answered by it — wait, it must: a final checkpoint below the budget
// is complete. The edge that must not reuse is a final checkpoint AT
// the budget, which cannot arise from a budgeted run (a budgeted run
// stopping at its budget is non-final). This test instead pins that an
// uncapped final checkpoint answers larger budgets but is never
// resumed past end-of-stream.
func TestCheckpointFinalAnswersLargerBudget(t *testing.T) {
	spec := RunSpec{System: BaselineDM, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.ProfileName = "compress" // one short program: drains quickly
	cfg.Processes = 0

	full, err := Run(context.Background(), cfg, spec) // uncapped: drains the stream
	if err != nil {
		t.Fatalf("uncapped run: %v", err)
	}

	store := memCheckpoints(t, nil)
	warm := cfg
	warm.Checkpoints = store
	if _, err := Run(context.Background(), warm, spec); err != nil {
		t.Fatalf("cold uncapped run: %v", err)
	}
	// A budget far beyond the stream length: the from-scratch run would
	// drain the stream before the budget, so the final checkpoint is a
	// complete answer.
	warm.MaxRefs = 1 << 40
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("warm over-budget run: %v", err)
	}
	if *got != *full {
		t.Errorf("over-budget warm report differs from uncapped scratch:\n got: %+v\nwant: %+v", *got, *full)
	}
}

// TestSweepWithCheckpoints pins the sweep path end to end: a cold sweep
// populates the store, a warm sweep restores every cell, and both match
// a sweep with no store attached.
func TestSweepWithCheckpoints(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.MaxRefs = 100_000
	rates := []uint64{1000}
	sizes := []uint64{256, 1024}

	want, err := SweepSpec(context.Background(), cfg, RunSpec{System: RAMpage}, rates, sizes)
	if err != nil {
		t.Fatalf("plain sweep: %v", err)
	}

	svc := &metrics.ServiceStats{}
	cfg.Checkpoints = memCheckpoints(t, svc)
	cold, err := SweepSpec(context.Background(), cfg, RunSpec{System: RAMpage}, rates, sizes)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	plan := PlanCells(cfg, gridSpecs(RunSpec{System: RAMpage}, rates, sizes))
	if plan.Warm != len(rates)*len(sizes) || plan.Complete != len(rates)*len(sizes) {
		t.Errorf("plan after cold sweep: warm=%d complete=%d, want both %d", plan.Warm, plan.Complete, len(rates)*len(sizes))
	}
	warm, err := SweepSpec(context.Background(), cfg, RunSpec{System: RAMpage}, rates, sizes)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	for i := range rates {
		for j := range sizes {
			if *cold[i][j] != *want[i][j] {
				t.Errorf("cold cell [%d][%d] differs from plain sweep", i, j)
			}
			if *warm[i][j] != *want[i][j] {
				t.Errorf("warm cell [%d][%d] differs from plain sweep", i, j)
			}
		}
	}
	if hits := svc.Get(metrics.SvcCkptHit); hits != uint64(len(rates)*len(sizes)) {
		t.Errorf("warm sweep counted %d checkpoint hits, want %d", hits, len(rates)*len(sizes))
	}
}

// TestPlanSweepOrdersWarmFirst pins the planner's ordering contract
// over a sweep's cells, and that each planned cell names its position
// in the input.
func TestPlanSweepOrdersWarmFirst(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.MaxRefs = 60_000
	cfg.Checkpoints = memCheckpoints(t, nil)
	specs := gridSpecs(RunSpec{System: RAMpage}, []uint64{1000}, []uint64{256, 512, 1024})

	// Warm exactly one cell.
	if _, err := Run(context.Background(), cfg, specs[1]); err != nil {
		t.Fatalf("warming run: %v", err)
	}
	plan := PlanCells(cfg, specs)
	if plan.Warm != 1 || plan.Complete != 1 {
		t.Fatalf("plan warm=%d complete=%d, want 1/1", plan.Warm, plan.Complete)
	}
	if got := plan.Cells[0].Spec.SizeBytes; got != 512 {
		t.Errorf("warmest cell has size %d, want the checkpointed 512", got)
	}
	if !plan.Cells[0].Complete {
		t.Errorf("warmest cell not marked complete")
	}
	for _, pc := range plan.Cells[1:] {
		if pc.Complete || pc.Refs != 0 {
			t.Errorf("cold cell %d marked warm", pc.Spec.SizeBytes)
		}
	}
	if got := []int{plan.Cells[0].Index, plan.Cells[1].Index, plan.Cells[2].Index}; got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Errorf("planned indices = %v, want [1 0 2] (warm cell, then cold cells in input order)", got)
	}
}

// TestSweepSpecRepeatedRateWithStore pins index addressing in the cell
// pool: with a checkpoint store attached the cells are dispatched in
// plan order, and a rate listed twice still fills both of its rows
// (addressing cells by rate value once left the first row nil).
func TestSweepSpecRepeatedRateWithStore(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.MaxRefs = 60_000
	cfg.Checkpoints = memCheckpoints(t, nil)
	rates, sizes := []uint64{1000, 1000}, []uint64{512}
	grid, err := SweepSpec(context.Background(), cfg, RunSpec{System: RAMpage}, rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), cfg, RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if grid[i][0] == nil {
			t.Fatalf("row %d of the repeated rate was never filled", i)
		}
		if *grid[i][0] != *want {
			t.Errorf("row %d differs from a direct run", i)
		}
	}
}

// TestRunCellsReportsEveryIndex pins RunCells' contract: done fires
// once per index, repeated specs included, with the report RunCells
// returns at that index.
func TestRunCellsReportsEveryIndex(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 2
	a := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	b := RunSpec{System: BaselineDM, IssueMHz: 200, SizeBytes: 256}
	specs := []RunSpec{a, b, a}
	var mu sync.Mutex
	seen := make(map[int]ReportJSON)
	out, err := RunCells(context.Background(), cfg, specs, func(k int, rep ReportJSON) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[k]; dup {
			t.Errorf("done called twice for cell %d", k)
		}
		seen[k] = rep
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(specs) || len(seen) != len(specs) {
		t.Fatalf("got %d reports and %d done calls, want %d of each", len(out), len(seen), len(specs))
	}
	for k := range specs {
		if !reflect.DeepEqual(seen[k], out[k]) {
			t.Errorf("done's report for cell %d differs from the returned one", k)
		}
	}
	if !reflect.DeepEqual(out[0], out[2]) || out[0].Name == out[1].Name {
		t.Errorf("reports not aligned with specs: %s, %s, %s", out[0].Name, out[1].Name, out[2].Name)
	}
}

// TestCheckpointPrefixKeyExcludesBudget pins the prefix identity: runs
// differing only in MaxRefs share a trajectory; any result-affecting
// spec or config change separates them, the workload name included.
func TestCheckpointPrefixKeyExcludesBudget(t *testing.T) {
	cfg := ckptTestConfig()
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	base := CheckpointPrefixKey(cfg, spec)
	if base == "" {
		t.Fatal("empty prefix for a checkpointable config")
	}
	budget := cfg
	budget.MaxRefs = 999
	if CheckpointPrefixKey(budget, spec) != base {
		t.Error("MaxRefs changed the prefix; extensions could never share warm-up")
	}
	knobs := cfg
	knobs.Verify = true
	knobs.Workers = 3
	if CheckpointPrefixKey(knobs, spec) != base {
		t.Error("execution knobs changed the prefix")
	}
	seed := cfg
	seed.Seed++
	if CheckpointPrefixKey(seed, spec) == base {
		t.Error("seed change kept the prefix")
	}
	spec2 := spec
	spec2.SizeBytes = 1024
	if CheckpointPrefixKey(cfg, spec2) == base {
		t.Error("spec change kept the prefix")
	}
	phased := cfg
	phased.ProfileName = synth.Phased
	if CheckpointPrefixKey(phased, spec) == base {
		t.Error("the phased workload kept the Table 2 prefix")
	}
}

// TestGoldenExperimentsCheckpointEquivalence runs every experiment with
// a committed golden three ways — no store, a cold store (captures) and
// the now-warm store (restores every cell) — and demands byte-identical
// JSON documents. This is the checkpoint analogue of the columnar
// equivalence gate: warm state must be invisible in results.
func TestGoldenExperimentsCheckpointEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments three times")
	}
	goldenIDs := []string{"table3", "table4", "table5", "fig2", "fig3", "fig4"}
	rates := []uint64{200, 4000}
	sizes := []uint64{256, 2048}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			plain := tinyConfig()
			want, err := BuildExperimentDoc(context.Background(), plain, id, rates, sizes)
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			warm := tinyConfig()
			warm.Checkpoints = memCheckpoints(t, nil)
			for _, phase := range []string{"cold", "warm"} {
				doc, err := BuildExperimentDoc(context.Background(), warm, id, rates, sizes)
				if err != nil {
					t.Fatalf("%s run: %v", phase, err)
				}
				got, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantJSON) {
					t.Errorf("%s store document diverges from plain document\n got: %s\nwant: %s", phase, got, wantJSON)
				}
			}
		})
	}
}

// TestCheckpointBytesExecutionPathInvariant pins a subtle codec
// property: the captured state must not depend on HOW the prefix was
// executed. Captured columns, the refill window and a run with an
// observer attached must all store byte-identical checkpoints, or a
// warm start would silently tie results to the producer's execution
// path.
func TestCheckpointBytesExecutionPathInvariant(t *testing.T) {
	spec := RunSpec{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true}
	base := ckptTestConfig()
	base.MaxRefs = 120_000
	prefix := CheckpointPrefixKey(base, spec)

	capture := func(name string, mutate func(*Config), readers func(Config) []trace.Reader) []byte {
		t.Helper()
		cfg := base
		cfg.Checkpoints = memCheckpoints(t, nil)
		mutate(&cfg)
		rs, err := cfg.Readers()
		if err != nil {
			t.Fatal(err)
		}
		if readers != nil {
			rs = readers(cfg)
		}
		if _, err := runWithReaders(context.Background(), cfg, spec, rs, ""); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		c, _, ok := cfg.Checkpoints.Nearest(prefix, 0)
		if !ok {
			t.Fatalf("%s run stored no checkpoint", name)
		}
		return c.Payload
	}

	captured := capture("captured", func(c *Config) {}, func(c Config) []trace.Reader { return capturedReaders(t, c) })
	refilled := capture("refilled", func(c *Config) {}, nil)
	observed := capture("observed", func(c *Config) { c.Observer = metrics.NewCollector(0) }, nil)
	if !bytes.Equal(captured, refilled) {
		t.Error("the refill window produced different checkpoint bytes than captured columns")
	}
	if !bytes.Equal(captured, observed) {
		t.Error("attaching an observer changed the checkpoint bytes")
	}
}

// TestSeededCheckpointCorruptionDetected proves the differential layer
// catches a corrupted checkpoint the codec and the restore's invariant
// check cannot: a single bit flipped in a serialized page-fault counter
// leaves the stream structurally valid (every marker intact, every
// length right) and the machine's invariants true, restores without
// error, and then surfaces as a report divergence against the
// from-scratch run — the same way the reference-oracle differential
// engine pins simulator bugs. The same flip in the cycle counter
// breaks time attribution, so that restore fails.
func TestSeededCheckpointCorruptionDetected(t *testing.T) {
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 240_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}

	store := memCheckpoints(t, nil)
	prefixCfg := cfg
	prefixCfg.Checkpoints = store
	prefixCfg.MaxRefs = 120_000
	prefixRep, err := Run(context.Background(), prefixCfg, spec)
	if err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	prefix := CheckpointPrefixKey(cfg, spec)
	ck, _, ok := store.Nearest(prefix, cfg.MaxRefs)
	if !ok {
		t.Fatal("prefix checkpoint not stored")
	}

	// The payload embeds the prefix report verbatim in declaration
	// order, so the capture-time cycle count locates the report without
	// knowing the full layout: the cycles, one time per level, then
	// eight counters before the page faults.
	var needle [8]byte
	binary.LittleEndian.PutUint64(needle[:], uint64(prefixRep.Cycles))
	at := bytes.Index(ck.Payload, needle[:])
	if at < 0 {
		t.Fatal("capture-time cycle count not found in payload; codec layout changed?")
	}
	faults := at + 8*(1+int(stats.NumLevels)+8)
	if got := binary.LittleEndian.Uint64(ck.Payload[faults:]); got != prefixRep.PageFaults {
		t.Fatalf("page faults at offset %d = %d, want %d; codec layout changed?", faults, got, prefixRep.PageFaults)
	}
	flipped := func(off int) *checkpoint.Checkpoint {
		c := &checkpoint.Checkpoint{Meta: ck.Meta, System: ck.System}
		c.Payload = append([]byte{}, ck.Payload...)
		c.Payload[off] ^= 1
		return c
	}
	warm := cfg
	warm.Checkpoints = memCheckpoints(t, nil)
	warm.Checkpoints.Put(flipped(at))
	if _, err := Run(context.Background(), warm, spec); err == nil || !strings.Contains(err.Error(), "attributed") {
		t.Errorf("resume from a flipped cycle counter: err = %v, want the restore's time attribution check to fail it", err)
	}

	warm.Checkpoints = memCheckpoints(t, nil)
	warm.Checkpoints.Put(flipped(faults))
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if *got == *want {
		t.Fatal("corrupted checkpoint produced the scratch report; the fault was silently absorbed")
	}
	if got.PageFaults == want.PageFaults {
		t.Errorf("page-fault counter corruption did not surface in the page-fault count: got %d", got.PageFaults)
	}
	// An uncorrupted copy of the same checkpoint still resumes cleanly —
	// the divergence above is the corruption, not the restore path.
	clean := memCheckpoints(t, nil)
	clean.Put(ck)
	warm.Checkpoints = clean
	if got, err = Run(context.Background(), warm, spec); err != nil || *got != *want {
		t.Errorf("clean resume failed (err %v) or diverged", err)
	}
}

// TestCheckpointPayloadsHalve is the count gate on checkpoint size: at
// quick scale the payloads of the four cells ROADMAP item 4 measures
// must be at most half what format version 1 stored for them. Version
// 1's byte counts, from the last commit that wrote it: baseline-dm
// 1 GHz / 4 KB 259,788; rampage 1 GHz / 4 KB 29,877; rampage
// 1 GHz / 128 B 254,971; rampage-cs 4 GHz / 2 KB with the switch trace
// 37,765.
func TestCheckpointPayloadsHalve(t *testing.T) {
	for _, tc := range []struct {
		spec RunSpec
		v1   int
	}{
		{RunSpec{System: BaselineDM, IssueMHz: 1000, SizeBytes: 4096}, 259_788},
		{RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 4096}, 29_877},
		{RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 128}, 254_971},
		{RunSpec{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 2048, SwitchTrace: true}, 37_765},
	} {
		cfg := QuickScaled()
		cfg.Checkpoints = memCheckpoints(t, nil)
		if _, err := Run(context.Background(), cfg, tc.spec); err != nil {
			t.Fatal(err)
		}
		ck, _, ok := cfg.Checkpoints.Nearest(CheckpointPrefixKey(cfg, tc.spec), cfg.MaxRefs)
		if !ok {
			t.Fatalf("%s %d MHz / %d B: no checkpoint stored", tc.spec.System, tc.spec.IssueMHz, tc.spec.SizeBytes)
		}
		if n := len(ck.Payload); 2*n > tc.v1 {
			t.Errorf("%s %d MHz / %d B: payload %d bytes, want at most half of version 1's %d",
				tc.spec.System, tc.spec.IssueMHz, tc.spec.SizeBytes, n, tc.v1)
		}
	}
}

// TestCheckpointVersion1RecordRunsCold pins the format bump: a record
// whose header carries format version 1 is a miss, whether it sits
// under the prefix version 1 hashed or under the current one, and the
// run starts cold and reports what a fresh run reports.
func TestCheckpointVersion1RecordRunsCold(t *testing.T) {
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 240_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}
	prefixCfg := cfg
	prefixCfg.Checkpoints = memCheckpoints(t, nil)
	prefixCfg.MaxRefs = 120_000
	if _, err := Run(context.Background(), prefixCfg, spec); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	prefix := CheckpointPrefixKey(cfg, spec)
	ck, _, ok := prefixCfg.Checkpoints.Nearest(prefix, cfg.MaxRefs)
	if !ok {
		t.Fatal("prefix checkpoint not stored")
	}
	rec := ck.Encode()
	binary.LittleEndian.PutUint32(rec[4:], 1) // the header's format version
	wc := NewWireConfig(cfg)
	wc.MaxRefs = 0
	v1Prefix := hashKey(ckptPrefixDoc{Format: 1, Version: ReportVersion, Config: wc, Spec: spec.Normalized()})

	dir := t.TempDir()
	disk, err := cas.Open(dir, ".ckpt", 0, cas.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{v1Prefix, prefix} {
		disk.Put(fmt.Sprintf("%s@%d/%t", p, ck.Meta.Refs, ck.Meta.Final), rec)
	}
	svc := &metrics.ServiceStats{}
	store, err := checkpoint.NewStore(0, dir, svc)
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 2 {
		t.Fatalf("the store indexes %d records, want the 2 written", n)
	}
	warm := cfg
	warm.Checkpoints = store
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("run over the version 1 records: %v", err)
	}
	if hits, misses := svc.Get(metrics.SvcCkptHit), svc.Get(metrics.SvcCkptMiss); hits != 0 || misses != 1 {
		t.Errorf("checkpoint hits/misses = %d/%d, want 0/1 (a cold run)", hits, misses)
	}
	if *got != *want {
		t.Errorf("report over the version 1 records differs from a fresh run:\n got: %+v\nwant: %+v", *got, *want)
	}
}
