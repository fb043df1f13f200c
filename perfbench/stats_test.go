package main

import (
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestSummarizeP50AndTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n             int
		p50, tail, pc float64
	}{
		{n: 1, p50: 1},
		{n: 4, p50: 2},
		{n: 10, p50: 5},                            // no sample has ten beyond it
		{n: 11, p50: 6, tail: 1, pc: 100.0 / 11},   // sorted[0], ten beyond
		{n: 20, p50: 10, tail: 10, pc: 50},         // the tail meets the median
		{n: 1000, p50: 500, tail: 990, pc: 99},     // p99 has exactly ten beyond
		{n: 2000, p50: 1000, tail: 1990, pc: 99.5}, // ten beyond p99.5
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.P50 != tc.p50 || d.Tail != tc.tail || d.TailPct != tc.pc {
			t.Errorf("n=%d: got %+v, want p50 %g tail %g at p%g", tc.n, d, tc.p50, tc.tail, tc.pc)
		}
		if d.TailPct > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > d.Tail {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want at least %d", tc.n, beyond, tailBeyond)
			}
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("empty: got %+v", d)
	}
}

func TestMedianEvenAndOdd(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestParseCPUTicks(t *testing.T) {
	const stat = `cpu  4705 150 1120 16250 520 30 45 317 0 0
cpu0 2350 75 560 8125 260 15 22 158 0 0
intr 12345
`
	got, err := parseCPUTicks(strings.NewReader(stat))
	// busy = user + nice + system + irq + softirq; idle and iowait are not.
	if want := (cpuTicks{busy: 4705 + 150 + 1120 + 30 + 45, steal: 317}); err != nil || got != want {
		t.Fatalf("parseCPUTicks = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{
		"cpu0 1 2 3 4 5 6 7 8\n", // no aggregate line
		"cpu  1 2 3 4 5 6 7\n",   // steal column missing
		"cpu  1 2 3 4 5 6 7 x\n", // not a number
		"cpu  1 x 3 4 5 6 7 8\n", // busy column not a number
	} {
		if _, err := parseCPUTicks(strings.NewReader(bad)); err == nil {
			t.Errorf("parseCPUTicks(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	const status = "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  213452 kB\nVmRSS:\t  200000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 213452 {
		t.Fatalf("parseVmHWM = %d, %v; want 213452", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Error("missing VmHWM parsed")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Error("VmHWM in the wrong unit parsed")
	}
}

func TestRusageCPU(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 2, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250000},
	}
	if got := rusageCPU(&ru); got != 2.75 {
		t.Errorf("rusageCPU = %g, want 2.75", got)
	}
	cpu, err := processCPU()
	if err != nil || cpu < 0 {
		t.Errorf("processCPU = %g, %v", cpu, err)
	}
}

func TestFitsWholeRotations(t *testing.T) {
	start := time.Now().Add(-4 * time.Second)
	if !fits(start, 2, 7*time.Second) { // 4 s for two rotations; a third ends at 6 s
		t.Error("third rotation should fit in 7 s")
	}
	if fits(start, 1, 7*time.Second) { // one 4 s rotation; a second ends at 8 s
		t.Error("second rotation should not fit in 7 s")
	}
}

func TestStealShare(t *testing.T) {
	for _, tc := range []struct {
		busy, steal float64
		want        float64
	}{
		{4.5, 0.5, 0.1}, // one busy thread lost a tenth of its runnable time
		{0.1, 0.01, 0},  // eleven ticks say nothing
		{0, 3, 1},
		{3, 0, 0},
	} {
		if got := stealShare(tc.busy, tc.steal); got != tc.want {
			t.Errorf("stealShare(%g, %g) = %g, want %g", tc.busy, tc.steal, got, tc.want)
		}
	}
}
