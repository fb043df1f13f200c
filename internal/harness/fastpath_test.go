package harness

import (
	"context"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/oracle"
	"rampage/internal/sim"
)

// batchCounter counts a machine's ExecBatchColumnar calls.
type batchCounter struct {
	sim.Machine
	calls int
}

func (c *batchCounter) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	c.calls++
	return c.Machine.ExecBatchColumnar(pid, kinds, addrs, until)
}

// maxCSBatchCalls bounds the ExecBatchColumnar calls of the quick-scale
// rampage-cs point at 4 GHz / 2 KB with the switch trace, over captured
// columns. A scheduler that cut its window to one reference while any
// page was in flight made 440,452 calls for the point's 1,093,100
// application references, about 90 times this bound; handing the
// machine the page arrival as a deadline makes about 1,150. The bound
// holds for observed and verified runs too: an observer sizes no
// window.
const maxCSBatchCalls = 5_000

// TestSwitchOnMissWindowsSpanTransfers is a host-independent gate on
// the switch-on-miss speed-up: while a page is in flight, the
// scheduler must hand the machine whole windows bounded by the page's
// arrival, not one reference at a time, whether the run is plain,
// observed by a Collector or verified by the oracle's invariant
// checker. A call count cannot drift with the host as a timing can.
func TestSwitchOnMissWindowsSpanTransfers(t *testing.T) {
	cfg := QuickScaled()
	spec := RunSpec{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 2048, SwitchTrace: true}
	for _, mode := range []string{"plain", "observed", "verified"} {
		t.Run(mode, func(t *testing.T) {
			readers := capturedReaders(t, cfg)
			m, err := NewMachine(cfg, spec, len(readers))
			if err != nil {
				t.Fatal(err)
			}
			scfg := schedulerConfig(cfg, spec)
			var checker *oracle.InvariantChecker
			switch mode {
			case "observed":
				scfg.Observer = metrics.NewCollector(0)
			case "verified":
				checker = oracle.NewInvariantChecker(m, nil)
				scfg.Observer = checker
			}
			if scfg.Observer != nil {
				m.SetObserver(scfg.Observer)
			}
			counted := &batchCounter{Machine: m}
			sched, err := sim.NewScheduler(counted, readers, scfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sched.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if checker != nil {
				if err := checker.Check(); err != nil {
					t.Fatal(err)
				}
			}
			if rep.BenchRefs != 1_093_100 || rep.SwitchesOnMiss == 0 {
				t.Fatalf("the point ran %d application references with %d switches on misses; the bound was set on 1,093,100 with switches", rep.BenchRefs, rep.SwitchesOnMiss)
			}
			t.Logf("%d ExecBatchColumnar calls for %d application references", counted.calls, rep.BenchRefs)
			if counted.calls > maxCSBatchCalls {
				t.Errorf("%d ExecBatchColumnar calls, want at most %d", counted.calls, maxCSBatchCalls)
			}
		})
	}
}
