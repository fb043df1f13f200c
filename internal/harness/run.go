package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rampage/internal/cache"
	"rampage/internal/checkpoint"
	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/oracle"
	"rampage/internal/policy"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// SystemKind selects which machine a run simulates.
type SystemKind uint8

const (
	// BaselineDM is the §4.4 baseline: direct-mapped L2.
	BaselineDM SystemKind = iota
	// TwoWayL2 is the §4.7 comparison: 2-way associative L2, random
	// replacement.
	TwoWayL2
	// RAMpage is the §4.5 machine without context switches on misses.
	RAMpage
	// RAMpageCS is RAMpage with context switches on misses (§4.6).
	RAMpageCS
)

// String names the system as the result tables label it.
func (k SystemKind) String() string {
	switch k {
	case BaselineDM:
		return "baseline-dm"
	case TwoWayL2:
		return "l2-2way"
	case RAMpage:
		return "rampage"
	case RAMpageCS:
		return "rampage-cs"
	default:
		return "unknown"
	}
}

// RunSpec is one simulation point in a sweep.
type RunSpec struct {
	System SystemKind
	// IssueMHz is the CPU issue rate; SizeBytes the L2 block size or
	// SRAM page size.
	IssueMHz  uint64
	SizeBytes uint64
	// SwitchTrace interleaves the context-switch code trace (§4.6) —
	// on for Tables 4–5, off for the Table 3 baseline comparison.
	SwitchTrace bool
	// VictimEntries attaches a victim cache to conventional systems
	// (ablation X3); TLBEntries/TLBAssoc override the TLB (ablation
	// X1, 0 = paper defaults); PipelinedDRAM enables ablation X2;
	// L1Bytes/L1Assoc override the L1 (the §6.3 aggressive-L1 probe).
	VictimEntries int
	TLBEntries    int
	TLBAssoc      int
	PipelinedDRAM bool
	L1Bytes       uint64
	L1Assoc       int
	// SDRAM swaps the Direct Rambus device for the §3.3 wide SDRAM
	// design (same peak bandwidth, coarser granularity).
	SDRAM bool
	// LightweightThreads uses the ~40-reference thread switch on
	// miss-induced switches (§3.2 multithreading).
	LightweightThreads bool
	// AdaptivePages runs the RAMpage machine with the §6.2 dynamic
	// page-size controller (SizeBytes is then the initial page size;
	// requires System == RAMpage).
	AdaptivePages bool
	// PrefetchNext enables sequential next-page prefetch on the RAMpage
	// systems (§3.2 extension).
	PrefetchNext bool
	// DRAMChannels stripes the DRAM across N Rambus channels (§3.3:
	// more bandwidth, unchanged latency). 0 or 1 = single channel.
	DRAMChannels int
	// BankedDRAM replaces the flat Rambus timing with the banked
	// open-row RDRAM model (§6.3 "more sophisticated Direct Rambus
	// simulation").
	BankedDRAM bool
	// Policy selects the SRAM page-replacement policy on the RAMpage
	// systems (see package policy). Empty means clock, the paper's
	// default; the field is omitted from hashing when empty so clock
	// runs keep their pre-policy cache keys and checkpoint prefixes.
	Policy string `json:",omitempty"`
}

// Validate checks a simulation point for configuration mistakes the
// lower layers would otherwise turn into panics or silent defaults,
// returning a descriptive error for each.
func (s RunSpec) Validate() error {
	if s.System > RAMpageCS {
		return fmt.Errorf("harness: unknown system kind %d (want baseline-dm, l2-2way, rampage or rampage-cs)", s.System)
	}
	if _, err := mem.NewClock(s.IssueMHz); err != nil {
		return fmt.Errorf("harness: bad issue rate %d MHz: %w", s.IssueMHz, err)
	}
	if s.SizeBytes == 0 || !mem.IsPow2(s.SizeBytes) {
		return fmt.Errorf("harness: block/page size %d is not a positive power of two", s.SizeBytes)
	}
	if s.VictimEntries < 0 {
		return fmt.Errorf("harness: negative victim-cache entries %d", s.VictimEntries)
	}
	if s.TLBEntries < 0 || s.TLBAssoc < 0 {
		return fmt.Errorf("harness: negative TLB geometry %d entries / %d-way", s.TLBEntries, s.TLBAssoc)
	}
	if s.L1Bytes != 0 && !mem.IsPow2(s.L1Bytes) {
		return fmt.Errorf("harness: L1 size %d is not a power of two", s.L1Bytes)
	}
	if s.L1Assoc < 0 {
		return fmt.Errorf("harness: negative L1 associativity %d", s.L1Assoc)
	}
	if s.DRAMChannels < 0 {
		return fmt.Errorf("harness: negative DRAM channel count %d", s.DRAMChannels)
	}
	if s.SDRAM && s.BankedDRAM {
		return fmt.Errorf("harness: SDRAM and BankedDRAM both set; pick one DRAM model")
	}
	if s.AdaptivePages && s.System != RAMpage && s.System != RAMpageCS {
		return fmt.Errorf("harness: adaptive pages require a RAMpage system, got %s", s.System)
	}
	pol, err := policy.Parse(s.Policy)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if pol != "" && s.System != RAMpage && s.System != RAMpageCS {
		return fmt.Errorf("harness: replacement policy %q applies to RAMpage systems only, got %s", s.Policy, s.System)
	}
	return nil
}

// Normalized returns the spec with its policy name canonicalized
// ("clock" becomes "", the default spelling that hashing omits).
func (s RunSpec) Normalized() RunSpec {
	s.Policy = policy.Normalize(s.Policy)
	return s
}

// Run executes one simulation point under the given configuration and
// returns its report. Cancellation of ctx stops the simulation between
// batches and returns ctx.Err().
func Run(ctx context.Context, cfg Config, spec RunSpec) (*stats.Report, error) {
	readers, err := cfg.Readers()
	if err != nil {
		return nil, err
	}
	return runWithReaders(ctx, cfg, spec, readers, "")
}

// runWithReaders is Run with the workload streams supplied by the
// caller — the cell pool uses it to replay one materialized workload
// across every cell instead of regenerating it per cell — and, when
// the caller has already hashed it, the run's checkpoint prefix ("" =
// hash it here when a store is attached).
func runWithReaders(ctx context.Context, cfg Config, spec RunSpec, readers []trace.Reader, prefix string) (*stats.Report, error) {
	machine, err := NewMachine(cfg, spec, len(readers))
	if err != nil {
		return nil, err
	}
	spec = spec.Normalized()
	obs := cfg.Observer
	var checker *oracle.InvariantChecker
	if cfg.Verify {
		checker = oracle.NewInvariantChecker(machine, obs)
		obs = checker
	}
	if obs != nil {
		machine.SetObserver(obs)
	}
	scfg := schedulerConfig(cfg, spec)
	scfg.Observer = obs
	sched, err := sim.NewScheduler(machine, readers, scfg)
	if err != nil {
		return nil, err
	}

	// Warm start: restore the newest dominating checkpoint of this
	// run's prefix. A complete checkpoint IS the finished run; a
	// resumable one fast-forwards the shared warm-up and Run continues
	// from its capture point, bit-identically to a cold run. Runs with
	// a user observer attached never restore: the observer's event
	// summary describes the execution, and a warm start would leave it
	// blind to the restored prefix. They still capture below — the
	// checkpoint bytes are execution-path-independent.
	if cfg.Checkpoints != nil && prefix == "" {
		prefix = CheckpointPrefixKey(cfg, spec)
	}
	restoredComplete := false
	if cfg.Checkpoints != nil && cfg.Observer == nil {
		if ck, complete, ok := cfg.Checkpoints.Nearest(prefix, cfg.MaxRefs); ok {
			if err := sim.RestoreState(machine, sched, ck.Payload); err != nil {
				return nil, fmt.Errorf("harness: restoring checkpoint %s@%d: %w", ck.System, ck.Meta.Refs, err)
			}
			if checker != nil {
				// The captured run's transfers were observed by *its*
				// checker; prime this one so its accounting reconciles.
				checker.Resume(machine.Report())
			}
			restoredComplete = complete
		}
	}

	rep := machine.Report()
	if !restoredComplete {
		rep, err = sched.Run(ctx)
		if err != nil {
			return nil, err
		}
	}
	if checker != nil {
		if err := checker.Check(); err != nil {
			return nil, fmt.Errorf("harness: %s @ %d MHz / %d B: %w", spec.System, spec.IssueMHz, spec.SizeBytes, err)
		}
	}
	// Capture before Release recycles the page-table slabs. A run
	// answered entirely by a complete checkpoint has nothing new to
	// store; Put dedups re-captures of an existing (prefix, refs,
	// final) address anyway.
	if cfg.Checkpoints != nil && !restoredComplete {
		refs := sched.Executed()
		final := !(cfg.MaxRefs > 0 && refs >= cfg.MaxRefs)
		if payload, err := sim.CaptureState(machine, sched); err == nil {
			cfg.Checkpoints.Put(&checkpoint.Checkpoint{
				Meta:    checkpoint.Meta{Prefix: prefix, Refs: refs, Final: final},
				System:  spec.System.String(),
				Payload: payload,
			})
		}
	}
	// The run is complete and verified: return the machine's pooled
	// resources (page-table arena slabs) for the next run to reuse. The
	// report was extracted above and stays valid.
	if rel, ok := machine.(interface{ Release() }); ok {
		rel.Release()
	}
	return rep, nil
}

// NewMachine builds the machine spec simulates under cfg, for a
// workload of procs processes, after validating both: the one builder
// behind every run, the warm-up study and rampage-sim's trace replay.
func NewMachine(cfg Config, spec RunSpec, procs int) (sim.Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalized()
	params := sim.DefaultParams(spec.IssueMHz)
	params.Seed = cfg.Seed
	if spec.TLBEntries > 0 {
		params.TLBEntries = spec.TLBEntries
		params.TLBAssoc = spec.TLBAssoc
	}
	if spec.PipelinedDRAM {
		params.PipelinedDRAM = true
	}
	if spec.L1Bytes > 0 {
		params.L1Bytes = spec.L1Bytes
	}
	if spec.L1Assoc > 0 {
		params.L1Assoc = spec.L1Assoc
	}
	if spec.SDRAM {
		params.DRAM = dram.NewSDRAM()
	}
	if spec.BankedDRAM {
		params.DRAM = dram.NewRDRAM()
	}
	if spec.DRAMChannels > 1 {
		mc, err := dram.NewMultiChannel(params.DRAM, uint64(spec.DRAMChannels))
		if err != nil {
			return nil, err
		}
		params.DRAM = mc
	}
	switch spec.System {
	case BaselineDM, TwoWayL2:
		assoc, l2pol := 1, cache.LRU
		if spec.System == TwoWayL2 {
			assoc, l2pol = 2, cache.RandomRepl
		}
		return sim.NewBaseline(sim.BaselineConfig{
			Params:        params,
			L2Bytes:       cfg.L2Bytes,
			L2Block:       spec.SizeBytes,
			L2Assoc:       assoc,
			L2Policy:      l2pol,
			DRAMBytes:     cfg.DRAMBytes,
			VictimEntries: spec.VictimEntries,
		})
	}
	rcfg := sim.RAMpageConfig{
		Params:       params,
		SRAMBytes:    cfg.SRAMBytes(spec.SizeBytes),
		PageBytes:    spec.SizeBytes,
		SwitchOnMiss: spec.System == RAMpageCS,
		PrefetchNext: spec.PrefetchNext,
		Policy:       spec.Policy,
	}
	if !spec.AdaptivePages {
		return sim.NewRAMpage(rcfg)
	}
	// One epoch should cover a full round-robin rotation so the
	// controller compares like with like — otherwise each epoch samples
	// different programs and the cost signal is noise. Cap the epoch so
	// short runs still adapt.
	epoch := cfg.Quantum * uint64(procs)
	total := uint64(synth.Table2TotalMillions() * 1e6 * cfg.RefScale)
	if cfg.MaxRefs > 0 && cfg.MaxRefs < total {
		total = cfg.MaxRefs
	}
	if cap := total / 12; epoch > cap {
		epoch = cap
	}
	if epoch < 20_000 {
		epoch = 20_000
	}
	return sim.NewAdaptiveRAMpage(sim.AdaptiveConfig{
		RAMpageConfig: rcfg,
		SRAMBytesFor:  cfg.SRAMBytes,
		EpochRefs:     epoch,
	})
}

// schedulerConfig is the multiprogramming configuration a spec runs
// under (no observer).
func schedulerConfig(cfg Config, spec RunSpec) sim.SchedulerConfig {
	return sim.SchedulerConfig{
		Quantum:            cfg.Quantum,
		InsertSwitchTrace:  spec.SwitchTrace,
		LightweightThreads: spec.LightweightThreads,
		Seed:               cfg.Seed,
		MaxRefs:            cfg.MaxRefs,
	}
}

// preloadRefsCap bounds workload materialization in the cell pool:
// streams totalling more than this many references (9 bytes each in
// columnar form) are regenerated per cell instead of being stored.
const preloadRefsCap = 64 << 20

// workloadKeyOf identifies cfg's materialized workload: its wire
// form with the fields that cannot change the generated streams
// zeroed. The streams depend only on the seed, the two scales, the
// workload name and the process count (never on the capacities, the
// quantum, the budget, or a cell's rate, size or system), so sweeps
// over the same configuration — including successive sweeps in one
// process, as in benchmarks — can share one capture.
func workloadKeyOf(cfg Config) WireConfig {
	w := NewWireConfig(cfg)
	w.L2Bytes, w.DRAMBytes, w.Quantum, w.MaxRefs = 0, 0, 0, 0
	return w
}

// workloadCache holds captured workloads across sweeps, keyed by
// workloadKeyOf. workloadCacheLen counts its entries plus the slots
// reserved by captures in progress, so concurrent captures cannot push
// it past workloadCacheCap; a pathological caller cycling through
// configurations cannot grow it without bound.
var (
	workloadCache    sync.Map // WireConfig -> []*trace.ColumnarBuffer
	workloadCacheLen atomic.Int32
	workloadCaptures atomic.Uint64
)

const workloadCacheCap = 8

// WorkloadCaptures returns how many workloads the cell pool has
// captured in this process.
func WorkloadCaptures() uint64 { return workloadCaptures.Load() }

// reserveWorkloadSlot claims a slot in the workload cache, reporting
// false when the cache is full.
func reserveWorkloadSlot() bool {
	for {
		n := workloadCacheLen.Load()
		if n >= workloadCacheCap {
			return false
		}
		if workloadCacheLen.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// preloadWorkload materializes the configuration's reference streams
// in columnar form so a call's cells can replay them, and later calls
// on the same workload can skip generation entirely. readers counts
// the call's cells that will read the streams: a cell that restores a
// complete checkpoint reads none. A cached workload is always
// replayed. Otherwise it captures only when the capture will be
// reused: two or more readers will replay it, or one will and the
// cache has room to keep it, so a call with no readers captures
// nothing. It returns nil when it does not capture, and when the
// workload is too large to hold (full-scale runs), a stream's length
// is unknown, or a stream is not single-process; callers then generate
// each cell's streams through the refill window.
func preloadWorkload(cfg Config, readers int) []*trace.ColumnarBuffer {
	key := workloadKeyOf(cfg)
	if v, ok := workloadCache.Load(key); ok {
		return v.([]*trace.ColumnarBuffer)
	}
	if readers == 0 {
		return nil
	}
	keep := reserveWorkloadSlot()
	if readers < 2 && !keep {
		return nil
	}
	out := captureWorkload(cfg)
	if !keep {
		return out
	}
	if out == nil {
		workloadCacheLen.Add(-1)
		return nil
	}
	if v, loaded := workloadCache.LoadOrStore(key, out); loaded {
		workloadCacheLen.Add(-1) // another call stored it first
		return v.([]*trace.ColumnarBuffer)
	}
	return out
}

// captureWorkload generates the configuration's streams into columns,
// or returns nil under preloadWorkload's fallback conditions.
func captureWorkload(cfg Config) []*trace.ColumnarBuffer {
	readers, err := cfg.Readers()
	if err != nil {
		return nil
	}
	var total uint64
	for _, r := range readers {
		g, ok := r.(interface{ Remaining() uint64 })
		if !ok {
			return nil
		}
		total += g.Remaining()
	}
	if total > preloadRefsCap {
		return nil
	}
	out := make([]*trace.ColumnarBuffer, len(readers))
	for i, r := range readers {
		want := r.(interface{ Remaining() uint64 }).Remaining()
		buf, err := trace.CaptureColumnar(r, want)
		if err != nil || uint64(buf.Len()) != want {
			return nil // multi-process or shorter than declared; fall back
		}
		out[i] = buf
	}
	workloadCaptures.Add(1)
	return out
}

// SweepSpec runs a grid of points — every issue rate crossed with
// every size, each cell a copy of base with its rate and size
// substituted — returning reports indexed [rate][size]. The cells run
// on the in-process cell pool (see RunCells), so they share one
// captured workload and run in parallel; results are deterministic
// regardless of parallelism. Cancelling ctx abandons unstarted cells,
// stops in-flight ones at the next batch boundary, and returns
// ctx.Err().
func SweepSpec(ctx context.Context, cfg Config, base RunSpec, rates, sizes []uint64) ([][]*stats.Report, error) {
	out := make([][]*stats.Report, len(rates))
	for i := range out {
		out[i] = make([]*stats.Report, len(sizes))
	}
	err := runPool(ctx, cfg, gridSpecs(base, rates, sizes), func(k int, rep *stats.Report) {
		out[k/len(sizes)][k%len(sizes)] = rep
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gridSpecs crosses rates with sizes over base, rate-major: cell k is
// row k/len(sizes), column k%len(sizes).
func gridSpecs(base RunSpec, rates, sizes []uint64) []RunSpec {
	specs := make([]RunSpec, 0, len(rates)*len(sizes))
	for _, rate := range rates {
		for _, size := range sizes {
			spec := base
			spec.IssueMHz, spec.SizeBytes = rate, size
			specs = append(specs, spec)
		}
	}
	return specs
}

// RunCells runs a set of simulation points in process and returns
// their flattened reports aligned with specs. It is the one local cell
// runner, behind every experiment document and run job, fleet workers'
// batches and the coordinator's orphan fallback
// (fleet.Coordinator.RunCells is the distributed one, with the same
// signature). done, when non-nil, receives each finished cell with its
// index into specs; it is called from the pool's goroutines, so it
// must be safe for concurrent use. Cancelling ctx abandons unstarted cells, stops
// in-flight ones at the next batch boundary, and returns ctx.Err().
func RunCells(ctx context.Context, cfg Config, specs []RunSpec, done func(k int, rep ReportJSON)) ([]ReportJSON, error) {
	out := make([]ReportJSON, len(specs))
	err := runPool(ctx, cfg, specs, func(k int, rep *stats.Report) {
		out[k] = NewReportJSON(rep)
		if done != nil {
			done(k, out[k])
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runPool is the one in-process cell pool. It plans the cells with
// PlanCells first, then captures the workload at most once for the
// whole call, under preloadWorkload's rule over the cells not planned
// complete, and replays it in every cell (each cell gets fresh
// ColumnarReaders over the shared, read-only columns, since the
// streams are independent of the cell's parameters). A call whose
// every cell is planned complete captures nothing: its restores read
// no stream. The plan is advisory, so a planned-complete cell whose
// checkpoint is gone by the time it runs simulates cold through the
// refill window. Cells are dispatched warmest-first and run on
// cfg.Workers goroutines (0 = one per CPU), each with the checkpoint
// prefix the plan hashed. They are addressed by their index into
// specs, so repeated specs each get their own report; put receives
// every report with that index.
func runPool(ctx context.Context, cfg Config, specs []RunSpec, put func(k int, rep *stats.Report)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Observer = nil // collectors are not safe across parallel cells
	plan := PlanCells(cfg, specs)
	preloaded := preloadWorkload(cfg, len(specs)-plan.Complete)
	cellRun := func(pc PlanCell) (*stats.Report, error) {
		var readers []trace.Reader
		if preloaded == nil {
			var err error
			if readers, err = cfg.Readers(); err != nil {
				return nil, err
			}
		} else {
			readers = make([]trace.Reader, len(preloaded))
			for i, buf := range preloaded {
				readers[i] = trace.NewColumnarReader(buf)
			}
		}
		return runWithReaders(ctx, cfg, pc.Spec, readers, pc.Prefix)
	}
	cells := make(chan PlanCell)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if len(specs) < workers {
		workers = len(specs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pc := range cells {
				if failed.Load() {
					continue // drain remaining cells after a failure
				}
				var rep *stats.Report
				err := ctx.Err()
				if err == nil {
					rep, err = cellRun(pc)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					continue
				}
				put(pc.Index, rep)
			}
		}()
	}
	// With a checkpoint store attached, complete restores return
	// immediately and the pool spends its time on the cold cells;
	// without one every cell is cold and specs order is kept.
	for _, pc := range plan.Cells {
		cells <- pc
	}
	close(cells)
	wg.Wait()
	return firstErr
}

// Best returns the index and report of the fastest configuration in a
// row of a sweep.
func Best(row []*stats.Report) (int, *stats.Report) {
	best := 0
	for i, r := range row {
		if r.Cycles < row[best].Cycles {
			best = i
		}
	}
	return best, row[best]
}
