package harness

import (
	"fmt"
	"strings"

	"rampage/internal/mem"
	"rampage/internal/policy"
	"rampage/internal/sim"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// extensionExperiments returns the experiments for the paper's
// future-work directions implemented in this repository (beyond the
// §6.3 ablations in experiments.go), the policy lab and the
// self-checks:
//
//   - sdram: swap the Direct Rambus for the §3.3 wide SDRAM design;
//   - threads: lightweight thread switches on misses (§3.2);
//   - adaptive: dynamic SRAM page sizing (§6.2);
//   - perbench: per-program optimal page size (§6.3 "differences in
//     individual application behaviour").
//
// warmup is the one experiment with no cells that simulates: it feeds
// the workload to a machine until the SRAM fills rather than for a
// reference budget, so it keeps its own loop.
func extensionExperiments() []Experiment {
	rp := RunSpec{System: RAMpage}
	cs := RunSpec{System: RAMpageCS, SwitchTrace: true}
	return []Experiment{
		{ID: "sdram", Title: "Extension (§3.3): SDRAM in place of Direct Rambus", rates: lastRate, expand: timeTable(
			"RAMpage run time (s): Direct Rambus vs the same-peak SDRAM (§3.3).\n"+
				"With equal startup latency and peak bandwidth the two hierarchies are\n"+
				"cycle-identical on width-multiple transfers, demonstrating the paper's\n"+
				"claim that its Rambus model matches an SDRAM implementation.\n",
			"page", 12, []string{"rambus", "sdram"}, rp, RunSpec{System: RAMpage, SDRAM: true})},
		{ID: "threads", Title: "Extension (§3.2): lightweight thread switch on miss", rates: lastRate, expand: ablation(
			[]RunSpec{cs, {System: RAMpageCS, SwitchTrace: true, LightweightThreads: true}},
			func(b *strings.Builder) {
				fmt.Fprintf(b, "RAMpage with switches on misses: full process switch (~%d refs) vs\n",
					synth.ContextSwitchRefCount())
				fmt.Fprintf(b, "lightweight thread switch (~%d refs) on miss-induced switches (§3.2).\n",
					synth.ThreadSwitchRefCount())
				fmt.Fprintf(b, "%-10s %12s %12s %10s\n", "page", "process", "thread", "speedup")
			},
			func(b *strings.Builder, r []ReportJSON) {
				fmt.Fprintf(b, " %12.4f %12.4f %10.3f\n", r[0].Seconds, r[1].Seconds, float64(r[0].Cycles)/float64(r[1].Cycles))
			})},
		{ID: "adaptive", Title: "Extension (§6.2): dynamic SRAM page sizing", expand: expandAdaptive},
		{ID: "perbench", Title: "Extension (§6.3): per-program optimal page size", rates: pinRate(1000), expand: expandPerBench},
		{ID: "prefetch", Title: "Extension (§3.2): sequential next-page prefetch", rates: lastRate, expand: ablation(
			[]RunSpec{rp, {System: RAMpage, PrefetchNext: true}},
			func(b *strings.Builder) {
				b.WriteString("RAMpage run time (s) with sequential next-page prefetch (§3.2:\n")
				b.WriteString("\"Prefetch could be added to RAMpage\"). Hits/issued shows accuracy.\n")
				fmt.Fprintf(b, "%-10s %12s %12s %10s %14s\n", "page", "demand", "prefetch", "speedup", "hits/issued")
			},
			func(b *strings.Builder, r []ReportJSON) {
				plain, pf := r[0], r[1]
				ratio := "-"
				if pf.Prefetches > 0 {
					ratio = fmt.Sprintf("%d/%d", pf.PrefetchHits, pf.Prefetches)
				}
				fmt.Fprintf(b, " %12.4f %12.4f %10.3f %14s\n",
					plain.Seconds, pf.Seconds, float64(plain.Cycles)/float64(pf.Cycles), ratio)
			})},
		{ID: "channels", Title: "Extension (§3.3): multiple Rambus channels", rates: lastRate, expand: timeTable(
			"RAMpage run time (s) with the DRAM striped across Rambus channels\n"+
				"(§3.3: more channels raise bandwidth but not latency, so big pages\n"+
				"benefit most and the 50ns startup bounds the gain at small pages).\n",
			"page", 10, []string{"x1", "x2", "x4"},
			RunSpec{System: RAMpage, DRAMChannels: 1}, RunSpec{System: RAMpage, DRAMChannels: 2}, RunSpec{System: RAMpage, DRAMChannels: 4})},
		{ID: "banked", Title: "Extension (§6.3): banked open-row RDRAM timing", rates: lastRate, expand: timeTable(
			"Flat 50ns-per-reference Rambus vs the banked open-row RDRAM model\n"+
				"(§6.3). Row-buffer hits start in 20ns instead of 50ns, so workloads\n"+
				"with DRAM-page locality gain; transfers spanning rows pay per row.\n",
			"size", 12, []string{"base-flat", "base-banked", "rp-flat", "rp-banked"},
			RunSpec{System: BaselineDM}, RunSpec{System: BaselineDM, BankedDRAM: true}, rp, RunSpec{System: RAMpage, BankedDRAM: true})},
		{ID: "policies", Title: "Policy lab: SRAM page replacement (clock/fifo/random/awrp/bandwidth)", rates: pinRate(1000),
			form: &docForm{
				systems:     []SystemKind{RAMpage, RAMpage, RAMpage, RAMpage, RAMpage},
				switchTrace: []bool{false, false, false, false, false},
				policies:    []string{policy.Clock, policy.FIFO, policy.Random, policy.AWRP, policy.Bandwidth},
				// The determinism verdict reruns awrp at the largest page.
				reruns: func(sh ExperimentShape) []RunSpec {
					return []RunSpec{{System: RAMpage, IssueMHz: sh.RatesMHz[0], SizeBytes: sh.SizesBytes[len(sh.SizesBytes)-1], Policy: policy.AWRP}}
				},
				text: policiesText,
			}},
		{ID: "verdict", Title: "Self-check: every paper claim, PASS/FAIL", rates: firstAndLast, expand: expandVerdict},
		{ID: "phased", Title: "Extension (§6.2): adaptive paging on a phased workload", rates: lastRate, expand: expandPhased},
		{ID: "warmup", Title: "§4.2 warm-up analysis: references to fill the SRAM",
			expand: func(_ *plan, cfg Config, _, sizes []uint64) fold {
				return func() (string, error) { return warmupText(cfg, sizes) }
			}},
	}
}

// policiesText is the policy lab's text form: the RAMpage machine at
// the paper's 1 GHz midpoint under every replacement policy, swept
// across the page sizes, with PASS/FAIL verdicts on the structural
// claims the lab depends on. It lists the document's grids in
// policy.Names() order; rerun[0] is awrp's second run at the largest
// page. The document itself is testdata/golden/policies.json.
func policiesText(doc ExperimentDoc, rerun []ReportJSON) string {
	sizes := doc.SizesBytes
	row := func(name string) []ReportJSON {
		for _, g := range doc.Systems {
			if g.System == SystemLabel(RAMpage, name) {
				return g.Rows[0]
			}
		}
		return nil
	}
	names := policy.Names()

	var b strings.Builder
	b.WriteString("SRAM page-replacement policies on the RAMpage machine at 1GHz.\n")
	b.WriteString("clock is the paper's §4.5 algorithm; fifo/random are baselines; awrp\n")
	b.WriteString("adapts a recency+frequency ranking; bandwidth protects high-reuse\n")
	b.WriteString("pages to suppress low-benefit SRAM<->DRAM page movement.\n\n")
	fmt.Fprintf(&b, "%-11s", "policy")
	for _, s := range sizes {
		fmt.Fprintf(&b, " %9s", mem.FormatSize(s))
	}
	fmt.Fprintf(&b, " %12s\n", "faults@best")
	for _, name := range names {
		fmt.Fprintf(&b, "%-11s", name)
		for _, rep := range row(name) {
			fmt.Fprintf(&b, " %9.4f", rep.Seconds)
		}
		_, rb := best(row(name))
		fmt.Fprintf(&b, " %12d\n", rb.PageFaults)
	}

	// Verdicts: the structural facts the policy dimension guarantees.
	first := row(names[0])
	sameWork := true
	for _, name := range names[1:] {
		for j, rep := range row(name) {
			if rep.BenchRefs != first[j].BenchRefs {
				sameWork = false
			}
		}
	}
	deterministic := rerun[0].Cycles == row(policy.AWRP)[len(sizes)-1].Cycles
	bestSecs := func(name string) float64 {
		_, rep := best(row(name))
		return rep.Seconds
	}
	random := bestSecs(policy.Random)
	informed := random
	for _, name := range []string{policy.Clock, policy.AWRP, policy.Bandwidth, policy.FIFO} {
		if s := bestSecs(name); s < informed {
			informed = s
		}
	}
	b.WriteString("\n")
	verdict := func(id, text string, pass bool, detail string) {
		mark := "FAIL"
		if pass {
			mark = "PASS"
		}
		fmt.Fprintf(&b, "  [%s] %-12s %s (%s)\n", mark, id, text, detail)
	}
	verdict("P-workload", "every policy executes the identical workload", sameWork,
		fmt.Sprintf("bench refs %d", first[0].BenchRefs))
	verdict("P-determinism", "policy runs are bit-reproducible", deterministic,
		fmt.Sprintf("awrp repeat: %d cycles", rerun[0].Cycles))
	verdict("P-informed", "an informed policy beats blind random at its best point", informed <= random,
		fmt.Sprintf("best informed %.4fs vs random %.4fs", informed, random))
	return b.String()
}

// warmupText reproduces the §4.2 warm-up measurement: "For 128-byte
// SRAM pages, it takes about 50-million references before every page
// in the RAMpage SRAM main memory is occupied; this figure drops off
// with page size to about 25-million references" (at 4 KB). The
// absolute counts scale with the configuration; the ~2x ratio between
// the ends of the sweep is the reproduction target.
func warmupText(cfg Config, sizes []uint64) (string, error) {
	var b strings.Builder
	b.WriteString("References until every SRAM page frame is occupied (§4.2 warm-up):\n")
	fmt.Fprintf(&b, "%-10s %14s %12s\n", "page", "refs-to-fill", "frames")
	var first, last float64
	for i, size := range sizes {
		refs, frames, err := warmupRefs(cfg, size)
		if err != nil {
			return "", err
		}
		if i == 0 {
			first = float64(refs)
		}
		if i == len(sizes)-1 {
			last = float64(refs)
		}
		fmt.Fprintf(&b, "%-10s %14d %12d\n", mem.FormatSize(size), refs, frames)
	}
	if last > 0 {
		fmt.Fprintf(&b, "\nsmallest/largest page fill ratio: %.2fx (paper: ~2x, 50M vs 25M refs)\n", first/last)
	}
	return b.String(), nil
}

// warmupRefs feeds the interleaved workload to a RAMpage machine until
// the SRAM is full, returning the references consumed.
func warmupRefs(cfg Config, pageBytes uint64) (uint64, uint64, error) {
	params := sim.DefaultParams(1000)
	params.Seed = cfg.Seed
	machine, err := sim.NewRAMpage(sim.RAMpageConfig{
		Params:    params,
		SRAMBytes: cfg.SRAMBytes(pageBytes),
		PageBytes: pageBytes,
	})
	if err != nil {
		return 0, 0, err
	}
	readers, err := cfg.Readers()
	if err != nil {
		return 0, 0, err
	}
	il, err := trace.NewInterleaver(readers, cfg.Quantum)
	if err != nil {
		return 0, 0, err
	}
	mm := machine.Memory()
	frames := mm.Frames() - mm.OSPages()
	var n uint64
	for mm.FreeFrames() > 0 {
		ref, err := il.Next()
		if err != nil {
			// Workload exhausted before the SRAM filled: report what
			// was consumed.
			return n, frames, nil
		}
		if _, err := machine.Exec(ref); err != nil {
			return 0, 0, err
		}
		n++
	}
	return n, frames, nil
}

// PhasedTable2 returns the Table 2 profiles with explicit program
// phases: each multi-region program first concentrates on its first
// region, then on the remainder, then mixes — the input/compute/output
// structure real programs have and the situation §6.2's dynamic page
// sizing is motivated by.
func PhasedTable2() []synth.Profile {
	profiles := synth.Table2()
	for i, p := range profiles {
		if len(p.Regions) < 2 {
			continue
		}
		first := make([]float64, len(p.Regions))
		rest := make([]float64, len(p.Regions))
		mixed := make([]float64, len(p.Regions))
		for j, r := range p.Regions {
			mixed[j] = r.Weight
			if j == 0 {
				first[j] = r.Weight
			} else {
				rest[j] = r.Weight
			}
		}
		profiles[i].Phases = []synth.Phase{
			{Frac: 1, Weights: first},
			{Frac: 1, Weights: rest},
			{Frac: 1, Weights: mixed},
		}
	}
	return profiles
}

func expandPhased(p *plan, _ Config, rates, sizes []uint64) fold {
	phased := cellID{phased: true}
	fixed := p.cells(phased, gridSpecs(RunSpec{System: RAMpage}, rates, sizes))
	adaptive := p.cells(phased, []RunSpec{{System: RAMpage, IssueMHz: rates[0], SizeBytes: sizes[0], AdaptivePages: true}})
	return func() (string, error) {
		var b strings.Builder
		b.WriteString("Adaptive page sizing on a *phased* workload (input/compute/output\n")
		b.WriteString("phases per program) — the situation §6.2's dynamic tuning targets.\n")
		fmt.Fprintf(&b, "%-14s %12s\n", "config", "seconds")
		for j, size := range sizes {
			fmt.Fprintf(&b, "fixed %-8s %12.4f\n", mem.FormatSize(size), fixed[j].Seconds)
		}
		_, bf := best(fixed)
		fmt.Fprintf(&b, "%-14s %12.4f  (%d resizes; best fixed %.4f)\n",
			"adaptive", adaptive[0].Seconds, adaptive[0].Resizes, bf.Seconds)
		return b.String(), nil
	}
}

func expandAdaptive(p *plan, _ Config, rates, sizes []uint64) fold {
	fixed := p.grid(RunSpec{System: RAMpage}, rates, sizes)
	adaptive := p.grid(RunSpec{System: RAMpage, AdaptivePages: true}, rates, sizes[:1])
	return func() (string, error) {
		var b strings.Builder
		b.WriteString("Dynamic SRAM page sizing (§6.2): a hill-climbing controller\n")
		b.WriteString("starts at the smallest paper page size and retunes on epoch cost,\n")
		b.WriteString("paying a full SRAM flush for every probe.\n")
		fmt.Fprintf(&b, "%-8s %14s %14s %14s %9s\n", "issue", "fixed-128B", "fixed-best", "adaptive", "resizes")
		for i, mhz := range rates {
			_, fb := best(fixed[i])
			a := adaptive[i][0]
			fmt.Fprintf(&b, "%-8s %14.4f %14.4f %14.4f %9d\n", mem.MustClock(mhz),
				fixed[i][0].Seconds, fb.Seconds, a.Seconds, a.Resizes)
		}
		return b.String(), nil
	}
}

func expandPerBench(p *plan, _ Config, rates, sizes []uint64) fold {
	programs := synth.Table2()
	rows := make([][]ReportJSON, len(programs))
	for i, prog := range programs {
		rows[i] = p.cells(cellID{program: prog.Name}, gridSpecs(RunSpec{System: RAMpage}, rates, sizes))
	}
	return func() (string, error) {
		var b strings.Builder
		b.WriteString("Per-program optimal RAMpage page size at 1GHz (§6.3: \"variation can\n")
		b.WriteString("make a difference in individual programs\"). Times in simulated ms.\n")
		fmt.Fprintf(&b, "%-12s", "program")
		for _, s := range sizes {
			fmt.Fprintf(&b, " %8s", mem.FormatSize(s))
		}
		fmt.Fprintf(&b, " %8s\n", "best")
		for i, prog := range programs {
			fmt.Fprintf(&b, "%-12s", prog.Name)
			for _, rep := range rows[i] {
				fmt.Fprintf(&b, " %8.2f", rep.Seconds*1000)
			}
			j, _ := best(rows[i])
			fmt.Fprintf(&b, " %8s\n", mem.FormatSize(sizes[j]))
		}
		return b.String(), nil
	}
}
