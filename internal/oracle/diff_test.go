package oracle

import (
	"strings"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
)

// TestSeededFaultCaught plants a deliberate off-by-one in the oracle's
// clock hand (the test-only skewHand knob advances the hand one extra
// position before each scan) and checks that the differential engine
// catches it with a pointed report: the index and reference of the
// first divergent access, the disagreeing report field, and both
// machines' state summaries. This is the end-to-end proof that the
// harness can actually see a replacement-policy bug — the subtlest
// class of error the oracle exists to catch.
func TestSeededFaultCaught(t *testing.T) {
	cfg := rampageCfg(false, 1000, 42)
	orc, err := NewRAMpage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orc.mm.pt.pol.setSkew(true)
	subj, err := sim.NewRAMpage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep workload overflows the SRAM, so victim selection runs
	// constantly; the skewed hand must pick a different victim quickly.
	refs := wlSweep(1, 40_000)
	div := Lockstep(orc, subj, refs)
	if div == nil {
		t.Fatal("seeded clock-hand fault not detected")
	}
	if div.Index < 0 || div.Index >= len(refs) {
		t.Errorf("divergence index %d does not point at a reference", div.Index)
	}
	if div.Where != "report" {
		t.Errorf("divergence site = %q, want \"report\" (a skewed victim changes counters first)", div.Where)
	}
	if div.Field == "" || div.OracleVal == div.SubjectVal {
		t.Errorf("report does not name a disagreeing field: field=%q oracle=%q subject=%q",
			div.Field, div.OracleVal, div.SubjectVal)
	}
	s := div.String()
	for _, want := range []string{"divergence at reference", "field", "oracle state"} {
		if !strings.Contains(s, want) {
			t.Errorf("divergence report missing %q:\n%s", want, s)
		}
	}
}

// TestSeededFaultCaughtBatched runs the same seeded fault through the
// batched comparison path.
func TestSeededFaultCaughtBatched(t *testing.T) {
	cfg := rampageCfg(false, 1000, 42)
	orc, err := NewRAMpage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orc.mm.pt.pol.setSkew(true)
	subj, err := sim.NewRAMpage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if div := LockstepBatch(orc, subj, wlSweep(1, 40_000), 512); div == nil {
		t.Fatal("seeded clock-hand fault not detected on the batched path")
	}
}

// TestMismatchedConfigDiverges is a sanity check from the other side:
// two machines that genuinely simulate different systems (different
// seeds, so different random placement) must be reported as divergent,
// proving the comparison isn't vacuously passing.
func TestMismatchedConfigDiverges(t *testing.T) {
	orc, err := NewBaseline(baselineCfg(2, 1000, 42))
	if err != nil {
		t.Fatal(err)
	}
	subj, err := sim.NewBaseline(baselineCfg(2, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if div := Lockstep(orc, subj, wlSweep(1, 40_000)); div == nil {
		t.Fatal("machines with different seeds compared equal")
	}
}

// TestCompareReportsNamesField pins the field-attribution logic the
// divergence report depends on.
func TestCompareReportsNamesField(t *testing.T) {
	var a, b stats.Report
	a.TLBMisses = 3
	b.TLBMisses = 5
	field, oval, sval := compareReports(&a, &b)
	if field != "TLBMisses" || oval != "3" || sval != "5" {
		t.Errorf("compareReports = (%q, %q, %q), want (TLBMisses, 3, 5)", field, oval, sval)
	}
	if f, _, _ := compareReports(&a, &a); f != "" {
		t.Errorf("identical reports compared unequal on field %q", f)
	}
}

// TestDivergenceStringFinal covers the end-of-run divergence shape
// (Index == -1).
func TestDivergenceStringFinal(t *testing.T) {
	d := &Divergence{Index: -1, Where: "report", Field: "Cycles", OracleVal: "1", SubjectVal: "2"}
	s := d.String()
	if !strings.Contains(s, "final") {
		t.Errorf("final divergence not labeled as such:\n%s", s)
	}
}

// TestSeededSchedulerFaultsCaught plants scheduling bugs in the
// reference scheduler — resume-on-arrival dropped, every quantum ended
// one reference late — and requires DiffRun to report each against the
// production scheduler on the path sweeps execute (captured columns),
// naming a disagreeing report field. It is the scheduler's counterpart
// of the clock-hand and policy fault proofs: the reference is only
// independent if a bug on its side cannot pass unnoticed.
func TestSeededSchedulerFaultsCaught(t *testing.T) {
	n := 30_000
	streams := [][]mem.Ref{wlLoop(0, n), wlSweep(0, n), wlLoop(0, n)}
	cfg := sim.SchedulerConfig{Quantum: 2_000, InsertSwitchTrace: true, Seed: 42}
	for _, tc := range []struct {
		name  string
		fault schedFault
	}{{"no-resume", faultNoResume}, {"late-quantum", faultLateQuantum}} {
		t.Run(tc.name, func(t *testing.T) {
			orc, subj := buildRAMpagePair(t, true, 1000, 42)
			div, err := diffRun(orc, subj, streams, cfg, Columns, tc.fault)
			if err != nil {
				t.Fatalf("diff run: %v", err)
			}
			if div == nil {
				t.Fatal("seeded scheduler fault not detected")
			}
			if div.Where != "report" || div.Field == "" || div.OracleVal == div.SubjectVal {
				t.Errorf("divergence does not name a disagreeing field:\n%s", div)
			}
		})
	}
}

// deadlineFault wraps a production machine and breaks the
// ExecBatchColumnar deadline contract one way: it ignores the deadline,
// or it stops every window after its first reference.
type deadlineFault struct {
	sim.Machine
	ignore bool
}

func (f deadlineFault) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	if f.ignore {
		return f.Machine.ExecBatchColumnar(pid, kinds, addrs, 0)
	}
	n := min(len(kinds), 1)
	return f.Machine.ExecBatchColumnar(pid, kinds[:n], addrs[:n], until)
}

// TestLockstepBatchCatchesDeadlineFaults requires LockstepBatch to
// report a subject that runs past its deadline, and one that stops
// short of it, as a "consumed" divergence: every report of both stays
// bit-identical to the oracle's, so only the contract check sees them.
func TestLockstepBatchCatchesDeadlineFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ignore bool
	}{{"overrun", true}, {"early-stop", false}} {
		for _, sys := range systems() {
			t.Run(tc.name+"/"+sys.name, func(t *testing.T) {
				orc, subj := sys.build(t, 1000, 42)
				div := LockstepBatch(orc, deadlineFault{Machine: subj, ignore: tc.ignore}, wlSweep(1, 20_000), 64)
				if div == nil {
					t.Fatal("deadline fault not detected")
				}
				if div.Where != "consumed" {
					t.Errorf("divergence site = %q, want \"consumed\":\n%s", div.Where, div)
				}
			})
		}
	}
}
