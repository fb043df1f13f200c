package main

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"rampage/internal/cache"
	"rampage/internal/harness"
	"rampage/internal/mem"
	"rampage/internal/pagetable"
	"rampage/internal/policy"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/tlb"
	"rampage/internal/trace"
)

// totalRefs is every reference a report's machine executed: the
// benchmark's own plus the OS handler and switch references.
func totalRefs(r *stats.Report) uint64 {
	return r.BenchRefs + r.OSTLBRefs + r.OSFaultRefs + r.OSSwitchRefs
}

// cellRefs is totalRefs of a served cell.
func cellRefs(r harness.ReportJSON) uint64 {
	return r.BenchRefs + r.OSTLBRefs + r.OSFaultRefs + r.OSSwitchRefs
}

// counts accumulates the exact event counts of a set of served cells;
// they weight the per-event host costs the probes measure.
type counts struct {
	refs, tlbMisses, l1Misses, l2Misses, faults, scans, transfers, dramBytes uint64
}

func (c *counts) add(r harness.ReportJSON) {
	c.refs += cellRefs(r)
	c.tlbMisses += r.TLBMisses
	c.l1Misses += r.L1IMisses + r.L1DMisses
	c.l2Misses += r.L2Misses
	c.faults += r.PageFaults
	c.scans += r.ClockScans
	c.transfers += r.DRAMTransfers
	c.dramBytes += r.DRAMBytes
}

func (c counts) metrics() map[string]float64 {
	perKref := func(n uint64) float64 { return 1000 * float64(n) / float64(max(c.refs, 1)) }
	m := map[string]float64{
		"tlb.misses_per_kref":       perKref(c.tlbMisses),
		"cache.l1_misses_per_kref":  perKref(c.l1Misses),
		"cache.l2_misses_per_kref":  perKref(c.l2Misses),
		"pagetable.faults_per_kref": perKref(c.faults),
		"dram.transfers_per_kref":   perKref(c.transfers),
		"dram.kb_per_kref":          perKref(c.dramBytes) / 1024,
		"policy.scans_per_fault":    0,
	}
	if c.faults > 0 {
		m["policy.scans_per_fault"] = float64(c.scans) / float64(c.faults)
	}
	return m
}

// buildMachine constructs the machine harness.Run builds for spec
// under cfg (the subset of RunSpec the workloads use), so a probe can
// time the simulator layer without the harness around it. The probes
// check their reports against the harness's, byte for byte.
func buildMachine(cfg harness.Config, spec harness.RunSpec) (sim.Machine, error) {
	params := sim.DefaultParams(spec.IssueMHz)
	params.Seed = cfg.Seed
	switch spec.System {
	case harness.BaselineDM, harness.TwoWayL2:
		assoc, pol := 1, cache.LRU
		if spec.System == harness.TwoWayL2 {
			assoc, pol = 2, cache.RandomRepl
		}
		return sim.NewBaseline(sim.BaselineConfig{
			Params: params, L2Bytes: cfg.L2Bytes, L2Block: spec.SizeBytes,
			L2Assoc: assoc, L2Policy: pol, DRAMBytes: cfg.DRAMBytes,
		})
	case harness.RAMpage, harness.RAMpageCS:
		return sim.NewRAMpage(sim.RAMpageConfig{
			Params: params, SRAMBytes: cfg.SRAMBytes(spec.SizeBytes), PageBytes: spec.SizeBytes,
			SwitchOnMiss: spec.System == harness.RAMpageCS, Policy: spec.Policy,
		})
	}
	return nil, fmt.Errorf("no machine for system %s", spec.System)
}

func newScheduler(cfg harness.Config, spec harness.RunSpec, m sim.Machine, readers []trace.Reader) (*sim.Scheduler, error) {
	return sim.NewScheduler(m, readers, sim.SchedulerConfig{
		Quantum:           cfg.Quantum,
		InsertSwitchTrace: spec.SwitchTrace,
		Seed:              cfg.Seed,
	})
}

func release(m sim.Machine) {
	if r, ok := m.(interface{ Release() }); ok {
		r.Release()
	}
}

// simTiming is one probe run of the scheduler and machine: the build
// in wall time, the run in CPU time.
type simTiming struct {
	build, run time.Duration
	report     *stats.Report
}

// timeSim builds the machine and scheduler over readers and runs the
// workload to completion, timing the build and the run apart.
func timeSim(ctx context.Context, tr *tracer, cfg harness.Config, spec harness.RunSpec, readers func() []trace.Reader) (simTiming, error) {
	var st simTiming
	tag := specLabel(spec)
	var m sim.Machine
	var sched *sim.Scheduler
	err := tr.do("sim.build", 0, tag, func(int) error {
		t0 := time.Now()
		var err error
		if m, err = buildMachine(cfg, spec); err != nil {
			return err
		}
		sched, err = newScheduler(cfg, spec, m, readers())
		st.build = time.Since(t0)
		return err
	})
	if err != nil {
		return st, err
	}
	err = tr.do("sim.run", 0, tag, func(int) error {
		c0, err := cpuClock()
		if err != nil {
			return err
		}
		rep, err := sched.Run(ctx)
		st.report = rep
		if err != nil {
			return err
		}
		st.run, err = cpuSince(c0)
		return err
	})
	release(m)
	return st, err
}

// specLabel names a simulation point: system[+policy]@MHz/bytes.
func specLabel(s harness.RunSpec) string {
	name := s.System.String()
	if s.Policy != "" {
		name += "+" + s.Policy
	}
	return fmt.Sprintf("%s@%d/%d", name, s.IssueMHz, s.SizeBytes)
}

// generated is a workload's reference streams, captured in columns.
type generated struct {
	bufs         []*trace.ColumnarBuffer
	refs         uint64
	gen, capture time.Duration // CPU time: generation alone; generation plus capture
}

// generate times the synth layer (draining fresh generators) and the
// trace layer (capturing fresh generators into columns) apart.
func generate(tr *tracer, cfg harness.Config) (generated, error) {
	var g generated
	err := tr.do("synth.generate", 0, "", func(int) error {
		c0, err := cpuClock()
		if err != nil {
			return err
		}
		readers, err := cfg.Readers()
		if err != nil {
			return err
		}
		scratch := make([]mem.Ref, 4096)
		for _, r := range readers {
			for {
				n, err := trace.ReadBatch(r, scratch)
				g.refs += uint64(n)
				if err != nil {
					break
				}
			}
		}
		g.gen, err = cpuSince(c0)
		return err
	})
	if err != nil {
		return g, err
	}
	err = tr.do("trace.capture", 0, "", func(int) error {
		c0, err := cpuClock()
		if err != nil {
			return err
		}
		readers, err := cfg.Readers()
		if err != nil {
			return err
		}
		var captured uint64
		for _, r := range readers {
			// Sized up front, as the harness preloads workloads.
			var want uint64
			if g, ok := r.(interface{ Remaining() uint64 }); ok {
				want = g.Remaining()
			}
			buf, err := trace.CaptureColumnar(r, want)
			if err != nil {
				return err
			}
			g.bufs = append(g.bufs, buf)
			captured += uint64(buf.Len())
		}
		if g.capture, err = cpuSince(c0); err != nil {
			return err
		}
		if captured != g.refs {
			return fmt.Errorf("captured %d refs, generated %d", captured, g.refs)
		}
		return nil
	})
	return g, err
}

func (g generated) metrics() map[string]float64 {
	perRef := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(g.refs) }
	return map[string]float64{
		"synth.gen_ns_per_ref":     perRef(g.gen),
		"trace.capture_ns_per_ref": perRef(g.capture - g.gen),
		"trace.workload_mb":        float64(g.refs) * 9 / (1 << 20),
	}
}

func (g generated) columnarReaders() []trace.Reader {
	out := make([]trace.Reader, len(g.bufs))
	for i, b := range g.bufs {
		out[i] = trace.NewColumnarReader(b)
	}
	return out
}

// interleaved replays up to limit references of the captured streams
// in quantum-sized turns, the order the scheduler gives them.
func (g generated) interleaved(quantum uint64, limit int, fn func(pid mem.PID, kind mem.RefKind, addr mem.VAddr)) int {
	n := 0
	for off := 0; n < limit; off += int(quantum) {
		progressed := false
		for p, b := range g.bufs {
			end := min(off+int(quantum), b.Len())
			for i := off; i < end && n < limit; i++ {
				fn(mem.PID(p), b.Kinds[i], b.Addrs[i])
				n++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return n
}

// replayRefs is how many references the TLB, cache and page-table
// probes replay.
const replayRefs = 4 << 20

// timerCost estimates the cost of one time.Now/time.Since pair, so
// per-event timings can subtract it.
func timerCost() time.Duration {
	const n = 1 << 16
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return time.Since(t0) / n
}

// componentProbes replays the workload's own stream through the TLB,
// an L1 cache and, for each policy, the page-table fault path.
func componentProbes(tr *tracer, cfg harness.Config, g generated, pageBytes uint64, policies []string) (map[string]float64, error) {
	out := make(map[string]float64)
	err := tr.do("tlb.replay", 0, "", func(int) error {
		t, err := tlb.New(tlb.Config{Entries: 64, PageBytes: 4096, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		c0, err := cpuClock()
		if err != nil {
			return err
		}
		n := g.interleaved(cfg.Quantum, replayRefs, func(pid mem.PID, _ mem.RefKind, addr mem.VAddr) {
			if _, ok := t.Lookup(pid, addr); !ok {
				t.Insert(pid, addr, uint64(addr)>>12)
			}
		})
		d, err := cpuSince(c0)
		out["tlb.lookup_ns"] = float64(d.Nanoseconds()) / float64(n)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.do("cache.replay", 0, "", func(int) error {
		p := sim.DefaultParams(1000)
		c, err := cache.New(cache.Config{Name: "L1", SizeBytes: p.L1Bytes, BlockBytes: p.L1Block, Assoc: p.L1Assoc})
		if err != nil {
			return err
		}
		c0, err := cpuClock()
		if err != nil {
			return err
		}
		n := g.interleaved(cfg.Quantum, replayRefs, func(_ mem.PID, kind mem.RefKind, addr mem.VAddr) {
			c.Access(mem.PAddr(addr), kind == mem.Store)
		})
		d, err := cpuSince(c0)
		out["cache.access_ns"] = float64(d.Nanoseconds()) / float64(n)
		return err
	})
	if err != nil {
		return nil, err
	}
	tc := timerCost()
	for _, pol := range policies {
		err := tr.do("pagetable.faults", 0, pol, func(int) error {
			ns, err := faultCost(cfg, g, pageBytes, pol, tc)
			out["pagetable.fault_ns."+policyName(pol)] = ns
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// policies are the five replacement policies, clock spelled "".
var policies = []string{"", policy.FIFO, policy.Random, policy.AWRP, policy.Bandwidth}

func policyName(pol string) string {
	if pol == "" {
		return "clock"
	}
	return pol
}

// faultCost replays the stream's page references through an inverted
// page table sized like the RAMpage SRAM and times each fault: a
// missing LookupAppend, then ClockSelect, Unmap, Map and PolicyInsert.
func faultCost(cfg harness.Config, g generated, pageBytes uint64, pol string, timer time.Duration) (float64, error) {
	frames := cfg.SRAMBytes(pageBytes) / pageBytes
	pt, err := pagetable.New(pagetable.Config{
		Frames: frames, PageBytes: pageBytes, TableBase: synth.KernelBase + synth.KernelFixedBytes,
		Policy: pol, PolicySeed: cfg.Seed,
	})
	if err != nil {
		return 0, err
	}
	defer pt.Recycle()
	shift := bits.TrailingZeros64(pageBytes) // page sizes are powers of two
	var (
		probes, scans []uint64
		faults        int
		total         time.Duration
		ferr          error
	)
	g.interleaved(cfg.Quantum, replayRefs, func(pid mem.PID, _ mem.RefKind, addr mem.VAddr) {
		if ferr != nil {
			return
		}
		vpn := uint64(addr) >> shift
		t0 := time.Now()
		var ok bool
		if _, probes, ok = pt.LookupAppend(pid, vpn, probes[:0]); ok {
			return
		}
		frame, free := pt.AllocFree()
		if !free {
			var victim bool
			if frame, scans, victim = pt.ClockSelect(scans[:0]); !victim {
				ferr = fmt.Errorf("pagetable: no victim under policy %q", pol)
				return
			}
			if _, _, _, ferr = pt.Unmap(frame); ferr != nil {
				return
			}
		}
		if ferr = pt.Map(pid, vpn, frame); ferr != nil {
			return
		}
		pt.PolicyInsert(frame, false)
		total += time.Since(t0) - timer
		faults++
	})
	if ferr != nil {
		return 0, ferr
	}
	if faults == 0 {
		return 0, fmt.Errorf("page-table probe saw no faults")
	}
	return float64(total.Nanoseconds()) / float64(faults), nil
}
