package sim

import (
	"reflect"
	"testing"

	"rampage/internal/metrics"
)

// TestExecBatchZeroAllocWithCollector extends the steady-state
// allocation pin to the instrumented path: attaching a Collector must
// not make the batched hot loop allocate either (the probes use fixed
// arrays and preallocated snapshot storage).
func TestExecBatchZeroAllocWithCollector(t *testing.T) {
	pid, kinds, addrs := colsOf(t, batchWorkload(512))
	run := func(t *testing.T, m Machine) {
		t.Helper()
		m.SetObserver(metrics.NewCollector(10_000))
		for i := 0; i < 4; i++ {
			if n, block, err := m.ExecBatchColumnar(pid, kinds, addrs, 0); err != nil || block != 0 || n != len(kinds) {
				t.Fatalf("warm-up ExecBatchColumnar = %d, %d, %v", n, block, err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := m.ExecBatchColumnar(pid, kinds, addrs, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("instrumented ExecBatchColumnar allocates %.1f times per batch", allocs)
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t)) })
}

// TestObserverDoesNotPerturbReport runs identical machines with and
// without a Collector attached and requires bit-identical reports:
// observation is read-only.
func TestObserverDoesNotPerturbReport(t *testing.T) {
	pid, kinds, addrs := colsOf(t, batchWorkload(4096))
	run := func(t *testing.T, plain, observed Machine) *metrics.Collector {
		t.Helper()
		col := metrics.NewCollector(0)
		observed.SetObserver(col)
		for off := 0; off < len(kinds); off += 257 {
			end := off + 257
			if end > len(kinds) {
				end = len(kinds)
			}
			for _, m := range []Machine{plain, observed} {
				if n, block, err := m.ExecBatchColumnar(pid, kinds[off:end], addrs[off:end], 0); err != nil || block != 0 || n != end-off {
					t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
				}
			}
		}
		if !reflect.DeepEqual(plain.Report(), observed.Report()) {
			t.Errorf("observer perturbed the report:\nplain:    %+v\nobserved: %+v", plain.Report(), observed.Report())
		}
		return col
	}
	t.Run("baseline", func(t *testing.T) {
		col := run(t, newBatchBaseline(t), newBatchBaseline(t))
		counts := col.Counts()
		if counts[metrics.EvTLBHit] == 0 || counts[metrics.EvTLBMiss] == 0 {
			t.Errorf("expected TLB activity, got hit=%d miss=%d", counts[metrics.EvTLBHit], counts[metrics.EvTLBMiss])
		}
		if h := col.Hist(metrics.EvDRAMTransfer); h.Count == 0 {
			t.Error("expected DRAM transfer observations")
		}
	})
	t.Run("rampage", func(t *testing.T) {
		col := run(t, newBatchRAMpage(t), newBatchRAMpage(t))
		counts := col.Counts()
		if counts[metrics.EvPageFault] == 0 {
			t.Error("expected page faults on a cold RAMpage machine")
		}
	})
}

// minHitsPerCall bounds how the scheduled run below delivers EvTLBHit:
// on average at least this many hits per Count call. The per-reference
// path makes one call a hit; the fused runs, which deliver a run's hits
// at once, made about 25 hits a call on this workload.
const minHitsPerCall = 10

// hitCalls counts the Count calls that deliver EvTLBHit.
type hitCalls struct {
	metrics.Observer
	calls uint64
}

func (o *hitCalls) Count(e metrics.Event, n uint64) {
	if e == metrics.EvTLBHit {
		o.calls++
	}
	o.Observer.Count(e, n)
}

// TestObserverCountsMatchReport pins the probe sites that mirror a
// Report counter one-for-one: the collector and the report must agree
// exactly.
func TestObserverCountsMatchReport(t *testing.T) {
	pid, kinds, addrs := colsOf(t, batchWorkload(4096))
	t.Run("rampage", func(t *testing.T) {
		m := newBatchRAMpage(t)
		col := metrics.NewCollector(0)
		m.SetObserver(col)
		if n, block, err := m.ExecBatchColumnar(pid, kinds, addrs, 0); err != nil || block != 0 || n != len(kinds) {
			t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
		}
		rep := m.Report()
		counts := col.Counts()
		if counts[metrics.EvPageFault] != rep.PageFaults {
			t.Errorf("page faults: collector %d, report %d", counts[metrics.EvPageFault], rep.PageFaults)
		}
		h := col.Hist(metrics.EvDRAMTransfer)
		if h.Count != rep.DRAMTransfers || h.Sum != rep.DRAMBytes {
			t.Errorf("dram transfers: collector %d/%d bytes, report %d/%d bytes",
				h.Count, h.Sum, rep.DRAMTransfers, rep.DRAMBytes)
		}
		ht := col.Hist(metrics.EvTLBHandlerCycles)
		if ht.Sum != uint64(rep.TLBHandlerCycles) {
			t.Errorf("tlb handler cycles: collector %d, report %d", ht.Sum, rep.TLBHandlerCycles)
		}
		hf := col.Hist(metrics.EvFaultHandlerCycles)
		if hf.Sum != uint64(rep.FaultHandlerCycles) {
			t.Errorf("fault handler cycles: collector %d, report %d", hf.Sum, rep.FaultHandlerCycles)
		}
	})
	t.Run("baseline", func(t *testing.T) {
		m := newBatchBaseline(t)
		col := metrics.NewCollector(0)
		m.SetObserver(col)
		if n, block, err := m.ExecBatchColumnar(pid, kinds, addrs, 0); err != nil || block != 0 || n != len(kinds) {
			t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
		}
		rep := m.Report()
		counts := col.Counts()
		if counts[metrics.EvTLBHit] != rep.TLBHits {
			t.Errorf("tlb hits: collector %d, report %d", counts[metrics.EvTLBHit], rep.TLBHits)
		}
		h := col.Hist(metrics.EvDRAMTransfer)
		if h.Count != rep.DRAMTransfers || h.Sum != rep.DRAMBytes {
			t.Errorf("dram transfers: collector %d/%d bytes, report %d/%d bytes",
				h.Count, h.Sum, rep.DRAMTransfers, rep.DRAMBytes)
		}
	})
	// A scheduled switch-on-miss run takes the fused paths with the
	// observer attached, pages in flight included: the hits a fused run
	// flushes must reach the observer, in batches, not one call a hit.
	t.Run("rampage-cs-scheduled", func(t *testing.T) {
		m := testRAMpage(t, 1000, 1024, true)
		col := metrics.NewCollector(0)
		obs := &hitCalls{Observer: col}
		m.SetObserver(obs)
		cfg := SchedulerConfig{Quantum: 5000, InsertSwitchTrace: true, Seed: 5, Observer: obs}
		if _, _, err := runRefill(t, m, captured(deadlineStreams()), cfg); err != nil {
			t.Fatal(err)
		}
		rep := m.Report()
		counts := col.Counts()
		h := col.Hist(metrics.EvDRAMTransfer)
		for _, c := range []struct {
			what      string
			got, want uint64
		}{
			{"tlb hits", counts[metrics.EvTLBHit], rep.TLBHits},
			{"page faults", counts[metrics.EvPageFault], rep.PageFaults},
			{"switches on misses", counts[metrics.EvSwitchOnMiss], rep.SwitchesOnMiss},
			{"context switches", counts[metrics.EvContextSwitch], rep.Switches},
			{"dram transfers", h.Count, rep.DRAMTransfers},
			{"dram bytes", h.Sum, rep.DRAMBytes},
		} {
			if c.want == 0 {
				t.Errorf("%s: the report has none; the run does not exercise the probe", c.what)
			}
			if c.got != c.want {
				t.Errorf("%s: collector %d, report %d", c.what, c.got, c.want)
			}
		}
		t.Logf("%d TLB hits in %d Count calls", rep.TLBHits, obs.calls)
		if obs.calls*minHitsPerCall > rep.TLBHits {
			t.Errorf("%d TLB hits arrived in %d Count calls, want at least %d hits a call", rep.TLBHits, obs.calls, minHitsPerCall)
		}
	})
}
