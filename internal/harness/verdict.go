package harness

import (
	"fmt"
	"strings"

	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/stats"
)

// claim is one of the paper's comparative claims, checked
// programmatically against this repository's measurements.
type claim struct {
	id     string
	text   string
	pass   bool
	detail string
}

// expandVerdict plans the core sweeps at the first and last requested
// rates — cells Tables 3–5 share — and folds them into the paper's
// claims one by one, printing PASS/FAIL per claim. It is the
// repository's self-test of the reproduction (EXPERIMENTS.md is the
// prose version).
func expandVerdict(p *plan, _ Config, rates, sizes []uint64) fold {
	base := p.grid(RunSpec{System: BaselineDM}, rates, sizes)
	rp := p.grid(RunSpec{System: RAMpage}, rates, sizes)
	cs := p.grid(RunSpec{System: RAMpageCS, SwitchTrace: true}, rates, sizes)
	tw := p.grid(RunSpec{System: TwoWayL2, SwitchTrace: true}, rates, sizes)
	return func() (string, error) { return verdictText(sizes, base, rp, cs, tw), nil }
}

// verdictText checks the claims over grids indexed [slow, fast][size].
func verdictText(sizes []uint64, base, rp, cs, tw [][]ReportJSON) string {
	var claims []claim
	add := func(id, text string, pass bool, detail string) {
		claims = append(claims, claim{id, text, pass, detail})
	}

	// Table 1 (§3.5): the two cost examples.
	rows := dram.Table1()
	last := rows[len(rows)-1]
	add("T1-rambus", "4KB Rambus transfer costs ~2,600 instructions at 1GHz",
		last.RambusCost1GHz >= 2500 && last.RambusCost1GHz <= 2700,
		fmt.Sprintf("measured %d", last.RambusCost1GHz))
	add("T1-disk", "4KB disk transfer costs ~10M instructions at 1GHz",
		last.DiskCost1GHz >= 9_000_000 && last.DiskCost1GHz <= 11_000_000,
		fmt.Sprintf("measured %d", last.DiskCost1GHz))

	// Table 3: RAMpage loses at the smallest page at the slow clock.
	add("T3-smallpage", "RAMpage performs badly at the smallest SRAM page (TLB overhead)",
		rp[0][0].Cycles > base[0][0].Cycles,
		fmt.Sprintf("rampage %.4fs vs baseline %.4fs at %s/%dB",
			rp[0][0].Seconds, base[0][0].Seconds, mem.MustClock(rp[0][0].ClockMHz), sizes[0]))

	// Table 3: best-vs-best win at the fast clock, growing with the gap.
	_, bLo := best(base[0])
	_, rLo := best(rp[0])
	_, bHi := best(base[1])
	_, rHi := best(rp[1])
	gainLo := float64(bLo.Cycles) / float64(rLo.Cycles)
	gainHi := float64(bHi.Cycles) / float64(rHi.Cycles)
	add("T3-win", "best RAMpage beats best baseline at the fastest clock",
		gainHi >= 1.0, fmt.Sprintf("ratio %.3f", gainHi))
	add("T3-growth", "RAMpage's advantage grows with the CPU-DRAM gap",
		gainHi > gainLo, fmt.Sprintf("%.3f @slow -> %.3f @fast", gainLo, gainHi))

	// Table 4: switch-on-miss pays off as the gap grows.
	_, cLo := best(cs[0])
	_, cHi := best(cs[1])
	csLo := float64(rLo.Cycles) / float64(cLo.Cycles)
	csHi := float64(rHi.Cycles) / float64(cHi.Cycles)
	add("T4-growth", "the value of a context switch on a miss increases with CPU speed",
		csHi > csLo, fmt.Sprintf("speedup %.3f @slow -> %.3f @fast", csLo, csHi))
	add("T4-win", "switch-on-miss is a net win at the fastest clock",
		csHi >= 1.0, fmt.Sprintf("speedup %.3f", csHi))

	// Table 5 / Figure 5: 2-way competitive, RAMpage ahead at the gap's
	// far end.
	_, tHi := best(tw[1])
	add("F5-crossover", "RAMpage-CS matches or beats the 2-way L2 at the fastest clock",
		cHi.Cycles <= tHi.Cycles,
		fmt.Sprintf("rampage-cs %.4fs vs 2-way %.4fs", cHi.Seconds, tHi.Seconds))

	// Figures 2-3: DRAM share grows with the clock; RAMpage more
	// tolerant.
	bFracLo := bLo.LevelFraction(stats.DRAM)
	bFracHi := bHi.LevelFraction(stats.DRAM)
	rFracLo := rLo.LevelFraction(stats.DRAM)
	rFracHi := rHi.LevelFraction(stats.DRAM)
	add("F23-dram-grows", "DRAM's share of run time grows with the issue rate",
		bFracHi > bFracLo && rFracHi > rFracLo,
		fmt.Sprintf("baseline %.0f%%->%.0f%%, rampage %.0f%%->%.0f%%",
			100*bFracLo, 100*bFracHi, 100*rFracLo, 100*rFracHi))
	add("F23-tolerant", "RAMpage is more tolerant of DRAM latency than the baseline",
		rFracHi < bFracHi,
		fmt.Sprintf("%.0f%% vs %.0f%% at the fastest clock", 100*rFracHi, 100*bFracHi))

	// Figure 4: baseline overhead flat; RAMpage overhead falls steeply
	// with page size.
	var bMin, bMax float64 = 2, 0
	for _, r := range base[1] {
		o := r.OverheadRatio
		if o < bMin {
			bMin = o
		}
		if o > bMax {
			bMax = o
		}
	}
	add("F4-flat", "baseline handler overhead is flat across block sizes",
		bMax-bMin < 0.02, fmt.Sprintf("spread %.3f", bMax-bMin))
	first := rp[1][0].OverheadRatio
	lastO := rp[1][len(sizes)-1].OverheadRatio
	add("F4-cliff", "RAMpage handler overhead collapses as pages grow",
		first > 4*lastO && first > 0.2,
		fmt.Sprintf("%.1f%% at %dB -> %.1f%% at %dB", 100*first, sizes[0], 100*lastO, sizes[len(sizes)-1]))

	var b strings.Builder
	b.WriteString("Self-check of the paper's comparative claims at this scale:\n\n")
	passed := 0
	for _, c := range claims {
		mark := "FAIL"
		if c.pass {
			mark = "PASS"
			passed++
		}
		fmt.Fprintf(&b, "  [%s] %-14s %s\n%s%s\n", mark, c.id, c.text,
			strings.Repeat(" ", 24), c.detail)
	}
	fmt.Fprintf(&b, "\n%d/%d claims reproduced.\n", passed, len(claims))
	return b.String()
}
