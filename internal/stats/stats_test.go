package stats

import (
	"strings"
	"testing"

	"rampage/internal/mem"
)

func TestLevelString(t *testing.T) {
	want := map[Level]string{L1I: "L1i", L1D: "L1d", L2: "L2/SRAM", DRAM: "DRAM", Level(9): "Level(9)"}
	for l, s := range want {
		if got := l.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", l, got, s)
		}
	}
}

func TestChargeAccumulates(t *testing.T) {
	r := Report{Clock: mem.MustClock(200)}
	r.Charge(L1I, 10)
	r.Charge(DRAM, 30)
	if r.Cycles != 40 {
		t.Errorf("Cycles = %d, want 40", r.Cycles)
	}
	if r.LevelTime[L1I] != 10 || r.LevelTime[DRAM] != 30 {
		t.Errorf("LevelTime = %v", r.LevelTime)
	}
	if got := r.LevelFraction(DRAM); got != 0.75 {
		t.Errorf("LevelFraction(DRAM) = %g, want 0.75", got)
	}
}

func TestLevelFractionEmpty(t *testing.T) {
	var r Report
	if r.LevelFraction(L1I) != 0 {
		t.Error("fraction of empty report != 0")
	}
}

func TestSeconds(t *testing.T) {
	r := Report{Clock: mem.MustClock(200), Cycles: 200_000_000}
	if got := r.Seconds(); got != 1.0 {
		t.Errorf("Seconds = %g, want 1.0", got)
	}
}

func TestOverheadRatio(t *testing.T) {
	r := Report{BenchRefs: 1000, OSTLBRefs: 100, OSFaultRefs: 50, OSSwitchRefs: 400}
	// Figure 4 excludes context-switch references.
	if got := r.OverheadRatio(); got != 0.15 {
		t.Errorf("OverheadRatio = %g, want 0.15", got)
	}
	if got := r.OSRefs(); got != 550 {
		t.Errorf("OSRefs = %d, want 550", got)
	}
	var empty Report
	if empty.OverheadRatio() != 0 {
		t.Error("empty OverheadRatio != 0")
	}
}

func TestString(t *testing.T) {
	r := Report{Name: "rampage", Clock: mem.MustClock(1000), BlockBytes: 1024, Cycles: 100}
	s := r.String()
	for _, want := range []string{"rampage", "1GHz", "1KB", "DRAM"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestFormatLevelBars(t *testing.T) {
	r := &Report{Name: "x", Clock: mem.MustClock(200), BlockBytes: 1024}
	r.Charge(L1I, 25)
	r.Charge(L2, 25)
	r.Charge(DRAM, 50)
	share := func(_ int, l Level) float64 { return r.LevelFraction(l) }
	out := FormatLevelBars([]uint64{r.BlockBytes}, share, 40)
	if !strings.Contains(out, "1KB") {
		t.Errorf("missing size label:\n%s", out)
	}
	// 25% of 40 = 10 'i', 10 'S', 20 'D'.
	if !strings.Contains(out, strings.Repeat("i", 10)+strings.Repeat("S", 10)+strings.Repeat("D", 20)) {
		t.Errorf("bar segments wrong:\n%s", out)
	}
	// Default width kicks in for width <= 0.
	if out := FormatLevelBars([]uint64{r.BlockBytes}, share, 0); len(out) == 0 {
		t.Error("zero-width call produced nothing")
	}
}

func TestFormatLevelBarsEmptyReport(t *testing.T) {
	r := &Report{Name: "x", Clock: mem.MustClock(200), BlockBytes: 128}
	out := FormatLevelBars([]uint64{r.BlockBytes}, func(_ int, l Level) float64 { return r.LevelFraction(l) }, 20)
	if !strings.Contains(out, "|"+strings.Repeat(" ", 20)+"|") {
		t.Errorf("empty report should render a blank bar:\n%s", out)
	}
}
