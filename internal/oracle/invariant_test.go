package oracle

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/trace"
)

// runVerified runs a multiprogrammed workload through m with an
// invariant checker attached exactly as the harness wires it.
func runVerified(t *testing.T, m sim.Machine, streams [][]mem.Ref) error {
	t.Helper()
	checker := NewInvariantChecker(m, nil)
	m.SetObserver(checker)
	readers := make([]trace.Reader, len(streams))
	for i, s := range streams {
		readers[i] = trace.NewSliceReader(s)
	}
	sched, err := sim.NewScheduler(m, readers, sim.SchedulerConfig{
		Quantum:  2_000,
		Seed:     42,
		Observer: checker,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	return checker.Check()
}

// TestInvariantCheckerCleanRuns attaches the checker to each production
// machine over a replacement-heavy workload and expects no violations:
// the machines really do maintain their invariants, and the checker
// really does run its deep checks (verified by the probe counters).
func TestInvariantCheckerCleanRuns(t *testing.T) {
	streams := [][]mem.Ref{wlSweep(0, 30_000), wlLoop(0, 30_000)}
	for _, sys := range []struct {
		name  string
		build func() (sim.Machine, error)
	}{
		{"baseline-dm", func() (sim.Machine, error) { return sim.NewBaseline(baselineCfg(1, 1000, 42)) }},
		{"l2-2way", func() (sim.Machine, error) { return sim.NewBaseline(baselineCfg(2, 1000, 42)) }},
		{"rampage", func() (sim.Machine, error) { return sim.NewRAMpage(rampageCfg(false, 1000, 42)) }},
		{"rampage-cs", func() (sim.Machine, error) { return sim.NewRAMpage(rampageCfg(true, 1000, 42)) }},
	} {
		t.Run(sys.name, func(t *testing.T) {
			m, err := sys.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := runVerified(t, m, streams); err != nil {
				t.Errorf("invariant violation on a clean run: %v", err)
			}
		})
	}
}

// TestCheckInvariantsDirect pins that the deep checks pass on freshly
// built and exercised machines when called directly (the entry point
// the checker uses).
func TestCheckInvariantsDirect(t *testing.T) {
	b, err := sim.NewBaseline(baselineCfg(1, 1000, 42))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Errorf("fresh baseline: %v", err)
	}
	for _, ref := range wlSweep(1, 5_000) {
		if _, err := b.Exec(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Errorf("exercised baseline: %v", err)
	}
	r, err := sim.NewRAMpage(rampageCfg(false, 1000, 42))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Errorf("fresh rampage: %v", err)
	}
	for _, ref := range wlSweep(1, 5_000) {
		if _, err := r.Exec(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Errorf("exercised rampage: %v", err)
	}
}

// stubMachine is a minimal sim.Machine whose CheckInvariants result the
// tests control, for exercising the checker's failure paths without
// corrupting a real machine.
type stubMachine struct {
	rep     stats.Report
	deepErr error
}

func (s *stubMachine) Exec(mem.Ref) (mem.Cycles, error) { return 0, nil }
func (s *stubMachine) ExecBatchColumnar(_ mem.PID, k []mem.RefKind, _ []mem.VAddr) (int, mem.Cycles, error) {
	return len(k), 0, nil
}
func (s *stubMachine) ExecTrace([]mem.Ref, sim.RefClass) error { return nil }
func (s *stubMachine) Now() mem.Cycles                         { return s.rep.Cycles }
func (s *stubMachine) AdvanceTo(mem.Cycles)                    {}
func (s *stubMachine) Report() *stats.Report                   { return &s.rep }
func (s *stubMachine) SetObserver(metrics.Observer)            {}
func (s *stubMachine) CheckInvariants() error                  { return s.deepErr }

func TestInvariantCheckerTickMonotonicity(t *testing.T) {
	c := NewInvariantChecker(&stubMachine{}, nil)
	c.Tick(10)
	c.Tick(10) // equal is fine: the machine may not advance between ticks
	c.Tick(5)  // backwards is not
	err := c.Check()
	if err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Errorf("time regression not reported: %v", err)
	}
}

func TestInvariantCheckerReportsDeepError(t *testing.T) {
	boom := errors.New("clock hand out of range")
	m := &stubMachine{deepErr: boom}
	c := NewInvariantChecker(m, nil)
	if err := c.Check(); !errors.Is(err, boom) {
		t.Errorf("deep check error not surfaced: %v", err)
	}
	// Online detection: the violation is recorded at a deep-check
	// boundary, not just at the end.
	c2 := NewInvariantChecker(m, nil)
	for i := 0; i < deepCheckInterval; i++ {
		c2.Tick(uint64(i))
	}
	if c2.err == nil {
		t.Error("violation not detected online at the deep-check boundary")
	}
}

func TestInvariantCheckerDRAMAccounting(t *testing.T) {
	m := &stubMachine{}
	m.rep.DRAMTransfers = 2
	m.rep.DRAMBytes = 8192
	c := NewInvariantChecker(m, nil)
	c.Observe(metrics.EvDRAMTransfer, 4096)
	c.Observe(metrics.EvDRAMTransfer, 4096)
	if err := c.Check(); err != nil {
		t.Errorf("matching DRAM accounting rejected: %v", err)
	}
	// A transfer the observer never saw means the machine bypassed its
	// probe point.
	m2 := &stubMachine{}
	m2.rep.DRAMTransfers = 2
	m2.rep.DRAMBytes = 8192
	c2 := NewInvariantChecker(m2, nil)
	c2.Observe(metrics.EvDRAMTransfer, 4096)
	err := c2.Check()
	if err == nil || !strings.Contains(err.Error(), "DRAM") {
		t.Errorf("missing transfer observation not reported: %v", err)
	}
}

// TestInvariantCheckerForwards verifies the checker is transparent to a
// wrapped observer.
func TestInvariantCheckerForwards(t *testing.T) {
	col := metrics.NewCollector(0)
	c := NewInvariantChecker(&stubMachine{}, col)
	c.Count(metrics.EvTLBHit, 3)
	c.Observe(metrics.EvDRAMTransfer, 4096)
	c.Tick(7)
	if got := col.Counts()[metrics.EvTLBHit]; got != 3 {
		t.Errorf("forwarded count = %d, want 3", got)
	}
	if h := col.Hist(metrics.EvDRAMTransfer); h.Count != 1 || h.Sum != 4096 {
		t.Errorf("forwarded observation = %+v, want one 4096-byte transfer", h)
	}
}
