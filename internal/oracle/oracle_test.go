package oracle

import (
	"flag"
	"fmt"
	"testing"

	"rampage/internal/cache"
	"rampage/internal/mem"
	"rampage/internal/sim"
)

// -long runs the multi-million-reference differential sweeps (the
// scheduled CI job); the default suite stays small enough for every
// push.
var longMode = flag.Bool("long", false, "run the long differential traces")

// refCount returns the per-workload trace length: short for the CI
// suite, multi-million under -long.
func refCount() int {
	if *longMode {
		return 3_000_000
	}
	return 40_000
}

// Workload generators. These are deliberately simple deterministic
// reference streams — no RNG — shaped to stress different parts of the
// hierarchies: the differential engine only needs the two
// implementations to disagree on SOMETHING for a bug to surface, so
// what matters is coverage of hits, conflict misses, page faults, clock
// replacement and write-backs, not realism.

const (
	wlCodeBase = 0x0040_0000
	wlDataBase = 0x1000_0000
	wlHeapBase = 0x2000_0000
)

// wlLoop is an instruction loop over a few code pages with a small
// strided data walk: mostly L1 hits with periodic TLB misses.
func wlLoop(pid mem.PID, n int) []mem.Ref {
	refs := make([]mem.Ref, 0, n)
	for i := 0; len(refs) < n; i++ {
		refs = append(refs, mem.Ref{PID: pid, Kind: mem.IFetch,
			Addr: mem.VAddr(wlCodeBase + uint64(i%4096)*4)})
		if len(refs) < n && i%3 == 0 {
			kind := mem.Load
			if i%21 == 0 {
				kind = mem.Store
			}
			refs = append(refs, mem.Ref{PID: pid, Kind: kind,
				Addr: mem.VAddr(wlDataBase + uint64(i*64)%(96<<10))})
		}
	}
	return refs[:n]
}

// wlSweep is a store-heavy sequential sweep over a footprint larger
// than the L2/SRAM under test: it forces capacity misses, page faults,
// clock replacement and dirty write-backs.
func wlSweep(pid mem.PID, n int) []mem.Ref {
	const footprint = 1 << 20
	refs := make([]mem.Ref, 0, n)
	for i := 0; len(refs) < n; i++ {
		refs = append(refs, mem.Ref{PID: pid, Kind: mem.IFetch,
			Addr: mem.VAddr(wlCodeBase + uint64(i%512)*4)})
		if len(refs) < n {
			refs = append(refs, mem.Ref{PID: pid, Kind: mem.Store,
				Addr: mem.VAddr(wlHeapBase + uint64(i*48)%footprint)})
		}
	}
	return refs[:n]
}

// wlMixed interleaves three processes with different access patterns in
// irregular runs, exercising PID-tagged TLB/page-table state and
// inter-process conflict.
func wlMixed(n int) []mem.Ref {
	parts := [][]mem.Ref{
		wlLoop(1, n/3),
		wlSweep(2, n/3),
		wlLoop(3, n-2*(n/3)),
	}
	// Rotate between the streams in runs of varying length.
	refs := make([]mem.Ref, 0, n)
	pos := [3]int{}
	for k := 0; len(refs) < n; k++ {
		src := k % 3
		run := 17 + (k%7)*13
		for j := 0; j < run && pos[src] < len(parts[src]); j++ {
			refs = append(refs, parts[src][pos[src]])
			pos[src]++
		}
	}
	return refs[:n]
}

// workloads returns the named differential traces.
func workloads(n int) map[string][]mem.Ref {
	return map[string][]mem.Ref{
		"loop":  wlLoop(1, n),
		"sweep": wlSweep(1, n),
		"mixed": wlMixed(n),
	}
}

// Small machine configurations: capacities are shrunk until the
// workloads overflow every level, so replacement logic actually runs.

func testParams(mhz, seed uint64) sim.Params {
	p := sim.DefaultParams(mhz)
	p.Seed = seed
	return p
}

func baselineCfg(assoc int, mhz, seed uint64) sim.BaselineConfig {
	policy := cache.LRU
	if assoc > 1 {
		policy = cache.RandomRepl
	}
	return sim.BaselineConfig{
		Params:    testParams(mhz, seed),
		L2Bytes:   128 << 10,
		L2Block:   512,
		L2Assoc:   assoc,
		L2Policy:  policy,
		DRAMBytes: 8 << 20,
	}
}

func rampageCfg(switchOnMiss bool, mhz, seed uint64) sim.RAMpageConfig {
	return sim.RAMpageConfig{
		Params:       testParams(mhz, seed),
		SRAMBytes:    160 << 10,
		PageBytes:    512,
		SwitchOnMiss: switchOnMiss,
	}
}

// system is one cell of the differential matrix: a factory for the
// oracle and subject machines of one hierarchy variant.
type system struct {
	name  string
	build func(t *testing.T, mhz, seed uint64) (orc Machine, subj sim.Machine)
}

func buildBaselinePair(t *testing.T, assoc int, mhz, seed uint64) (Machine, sim.Machine) {
	t.Helper()
	cfg := baselineCfg(assoc, mhz, seed)
	orc, err := NewBaseline(cfg)
	if err != nil {
		t.Fatalf("oracle baseline: %v", err)
	}
	subj, err := sim.NewBaseline(cfg)
	if err != nil {
		t.Fatalf("sim baseline: %v", err)
	}
	return orc, subj
}

func buildRAMpagePair(t *testing.T, switchOnMiss bool, mhz, seed uint64) (Machine, sim.Machine) {
	t.Helper()
	cfg := rampageCfg(switchOnMiss, mhz, seed)
	orc, err := NewRAMpage(cfg)
	if err != nil {
		t.Fatalf("oracle rampage: %v", err)
	}
	subj, err := sim.NewRAMpage(cfg)
	if err != nil {
		t.Fatalf("sim rampage: %v", err)
	}
	return orc, subj
}

func systems() []system {
	return []system{
		{"baseline-dm", func(t *testing.T, mhz, seed uint64) (Machine, sim.Machine) {
			return buildBaselinePair(t, 1, mhz, seed)
		}},
		{"l2-2way", func(t *testing.T, mhz, seed uint64) (Machine, sim.Machine) {
			return buildBaselinePair(t, 2, mhz, seed)
		}},
		{"rampage", func(t *testing.T, mhz, seed uint64) (Machine, sim.Machine) {
			return buildRAMpagePair(t, false, mhz, seed)
		}},
		{"rampage-cs", func(t *testing.T, mhz, seed uint64) (Machine, sim.Machine) {
			return buildRAMpagePair(t, true, mhz, seed)
		}},
	}
}

// TestLockstep replays every workload through every hierarchy variant
// on both the oracle and the production machine, reference by
// reference, requiring bit-identical reports after every single
// reference.
func TestLockstep(t *testing.T) {
	n := refCount()
	for name, refs := range workloads(n) {
		for _, sys := range systems() {
			t.Run(sys.name+"/"+name, func(t *testing.T) {
				orc, subj := sys.build(t, 1000, 42)
				if div := Lockstep(orc, subj, refs); div != nil {
					t.Fatalf("divergence:\n%s", div)
				}
			})
		}
	}
}

// TestLockstepBatch drives the subject through its batched path
// (ExecBatchColumnar) against the per-reference oracle. Batch sizes
// straddle the scheduler's refill window to cover window-boundary
// handling.
func TestLockstepBatch(t *testing.T) {
	n := refCount()
	for name, refs := range workloads(n) {
		for _, sys := range systems() {
			for _, batch := range []int{64, 512} {
				t.Run(fmt.Sprintf("%s/%s/b%d", sys.name, name, batch), func(t *testing.T) {
					orc, subj := sys.build(t, 1000, 42)
					if div := LockstepBatch(orc, subj, refs, batch); div != nil {
						t.Fatalf("divergence (batch %d):\n%s", batch, div)
					}
				})
			}
		}
	}
}

// TestLockstepIssueRates replays one miss-heavy workload across the
// issue-rate sweep, pinning the cycle-conversion (picosecond) math at
// every clock the paper uses.
func TestLockstepIssueRates(t *testing.T) {
	n := refCount() / 4
	refs := wlSweep(1, n)
	for _, mhz := range []uint64{200, 400, 800, 1000, 2000, 4000} {
		for _, sys := range systems() {
			orc, subj := sys.build(t, mhz, 42)
			if div := Lockstep(orc, subj, refs); div != nil {
				t.Fatalf("%s @ %d MHz: divergence:\n%s", sys.name, mhz, div)
			}
		}
	}
}

// TestDiffRunScheduled runs a multiprogrammed workload — quantum
// rotation, context-switch traces, switch-on-miss blocking — with the
// oracle under the reference scheduler and the subject fed three ways:
// per reference under the same reference scheduler, and under
// sim.Scheduler over captured columns ("batched") and through its
// refill window ("refill"). Final reports must be identical.
func TestDiffRunScheduled(t *testing.T) {
	n := refCount()
	streams := [][]mem.Ref{
		wlLoop(0, n/3), // PIDs are assigned by the scheduler
		wlSweep(0, n/3),
		wlLoop(0, n/3),
	}
	cfg := sim.SchedulerConfig{
		Quantum:           2_000,
		InsertSwitchTrace: true,
		Seed:              42,
	}
	for _, sys := range systems() {
		for _, mode := range []struct {
			name string
			feed Feed
		}{{"per-ref", PerRef}, {"batched", Columns}, {"refill", Refill}} {
			t.Run(sys.name+"/"+mode.name, func(t *testing.T) {
				orc, subj := sys.build(t, 1000, 42)
				div, err := DiffRun(orc, subj, streams, cfg, mode.feed)
				if err != nil {
					t.Fatalf("diff run: %v", err)
				}
				if div != nil {
					t.Fatalf("divergence:\n%s", div)
				}
			})
		}
	}
}

// TestOracleRejectsUnmodeledConfigs pins the oracle's scope: anything
// it cannot model bit-identically must be refused loudly, never
// silently approximated.
func TestOracleRejectsUnmodeledConfigs(t *testing.T) {
	bad := baselineCfg(1, 1000, 42)
	bad.VictimEntries = 8
	if _, err := NewBaseline(bad); err == nil {
		t.Error("victim-cache config accepted; the oracle does not model it")
	}
	pip := baselineCfg(1, 1000, 42)
	pip.PipelinedDRAM = true
	if _, err := NewBaseline(pip); err == nil {
		t.Error("pipelined-DRAM config accepted; the oracle does not model it")
	}
	pre := rampageCfg(false, 1000, 42)
	pre.PrefetchNext = true
	if _, err := NewRAMpage(pre); err == nil {
		t.Error("prefetch config accepted; the oracle does not model it")
	}
}
