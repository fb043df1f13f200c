package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/synth"
)

// Experiment is one reproducible paper artifact: a table, a figure or
// an ablation. Each expands a request grid into cells and folds the
// cells' reports into text; an experiment with a JSON form folds them
// into its ExperimentDoc first and renders the text from that
// document. Run and RunExperiments run experiments on the in-process
// cell pool.
type Experiment struct {
	// ID is the registry key ("table3", "fig4", "bigtlb", ...).
	ID string
	// Title describes the artifact.
	Title string

	// rates is the experiment's rule for which of the requested issue
	// rates it runs (nil = every one).
	rates func([]uint64) []uint64
	// form is the document structure of an experiment with a JSON form.
	form *docForm
	// expand, for an experiment without one, records on p the cells
	// the experiment needs over the grid (paper defaults and rate rule
	// applied) and returns the fold that renders their reports.
	expand func(p *plan, cfg Config, rates, sizes []uint64) fold
}

// fold renders an experiment's text once its plan's reports are in.
type fold func() (string, error)

// Artifact is one experiment's output over one request grid: its text
// and, for an experiment with a JSON form, the document the text was
// rendered from.
type Artifact struct {
	Text string
	Doc  *ExperimentDoc
}

// registry is every experiment, in paper order, built once.
var registry = sync.OnceValue(func() []Experiment {
	return append(paperExperiments(), extensionExperiments()...)
})

// Experiments returns the registry, in paper order.
func Experiments() []Experiment { return slices.Clone(registry()) }

// FindExperiment looks up an experiment by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// HasJSONForm reports whether the experiment has a JSON form: a
// document ShapeOf, BuildExperimentDoc and the service can build.
func (e Experiment) HasJSONForm() bool { return e.form != nil }

// Run executes the experiment under cfg with the given issue-rate and
// size sweeps (empty slices select the paper defaults) and returns its
// text. It is RunExperiments over this one experiment.
func (e Experiment) Run(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	arts, err := RunExperiments(ctx, cfg, []Experiment{e}, rates, sizes)
	if err != nil {
		return "", err
	}
	return arts[0].Text, nil
}

// RunExperiments runs a set of experiments over one request grid
// (empty slices select the paper defaults). It expands every
// experiment into cells, simulates each distinct cell once on the
// in-process cell pool — one RunCells call per workload — and folds
// each experiment's artifact from the shared reports. The artifacts
// align with exps. Cancelling ctx stops the simulation and returns
// ctx.Err().
func RunExperiments(ctx context.Context, cfg Config, exps []Experiment, rates, sizes []uint64) ([]Artifact, error) {
	var p plan
	folds := make([]func() (Artifact, error), len(exps))
	for i, e := range exps {
		f, err := e.expandOn(&p, cfg, rates, sizes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		folds[i] = f
	}
	if err := p.run(ctx, cfg, RunCells); err != nil {
		return nil, err
	}
	arts := make([]Artifact, len(exps))
	for i, f := range folds {
		a, err := f()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		arts[i] = a
	}
	return arts, nil
}

// grid applies the paper defaults and the experiment's rate rule to a
// requested grid.
func (e Experiment) grid(rates, sizes []uint64) ([]uint64, []uint64) {
	if len(rates) == 0 {
		rates = IssueRatesMHz
	}
	if e.rates != nil {
		rates = e.rates(rates)
	}
	if len(sizes) == 0 {
		sizes = BlockSizes
	}
	return rates, sizes
}

// expandOn records the experiment's cells over a requested grid on p
// and returns the fold of its artifact.
func (e Experiment) expandOn(p *plan, cfg Config, rates, sizes []uint64) (func() (Artifact, error), error) {
	if e.form == nil {
		rates, sizes = e.grid(rates, sizes)
		text := e.expand(p, cfg, rates, sizes)
		return func() (Artifact, error) {
			s, err := text()
			return Artifact{Text: s}, err
		}, nil
	}
	sh, err := ShapeOf(e.ID, rates, sizes)
	if err != nil {
		return nil, err
	}
	reports := p.cells(cellID{}, sh.CellSpecs())
	var reruns []ReportJSON
	if e.form.reruns != nil {
		reruns = p.cells(cellID{repeat: true}, e.form.reruns(sh))
	}
	return func() (Artifact, error) {
		doc, err := sh.Doc(reports)
		if err != nil {
			return Artifact{}, err
		}
		return Artifact{Text: e.form.text(doc, reruns), Doc: &doc}, nil
	}, nil
}

// cellID identifies one simulation: a spec on a workload, which is
// the configured Table 2 set unless program narrows it to one Table 2
// program (perbench) or phased swaps in the phased profile set
// (PhasedTable2, which no cache or checkpoint key covers). A repeat is
// a deliberate second simulation of a cell (the policy lab's
// determinism check), so it never shares a report with the first.
type cellID struct {
	program string
	phased  bool
	spec    RunSpec
	repeat  bool
}

// config returns cfg running the cell's workload.
func (id cellID) config(cfg Config) Config {
	if id.program != "" {
		cfg.ProfileName = id.program
	}
	if id.phased {
		cfg.profiles = PhasedTable2()
	}
	return cfg
}

// plan collects the cells a set of experiments needs, each distinct
// cell once. Every request returns report storage that run fills
// before any fold reads it.
type plan struct {
	index map[cellID]int
	ids   []cellID
	// dsts holds, per cell, every place its report is wanted.
	dsts [][]*ReportJSON
}

// cells records a cell like id for each spec; their reports land in
// the returned slice, aligned with specs.
func (p *plan) cells(id cellID, specs []RunSpec) []ReportJSON {
	if p.index == nil {
		p.index = make(map[cellID]int)
	}
	out := make([]ReportJSON, len(specs))
	for n, spec := range specs {
		id.spec = spec.Normalized()
		k, ok := p.index[id]
		if !ok {
			k = len(p.ids)
			p.index[id] = k
			p.ids = append(p.ids, id)
			p.dsts = append(p.dsts, nil)
		}
		p.dsts[k] = append(p.dsts[k], &out[n])
	}
	return out
}

// grid records base crossed with rates and sizes on the Table 2
// workload and returns the reports indexed [rate][size].
func (p *plan) grid(base RunSpec, rates, sizes []uint64) [][]ReportJSON {
	flat := p.cells(cellID{}, gridSpecs(base, rates, sizes))
	rows := make([][]ReportJSON, len(rates))
	for i := range rows {
		rows[i] = flat[i*len(sizes) : (i+1)*len(sizes)]
	}
	return rows
}

// run simulates every planned cell through runCells (RunCells, or a
// test's stand-in), one call per workload in the order the workloads
// were first planned, and stores each report wherever it was wanted.
func (p *plan) run(ctx context.Context, cfg Config, runCells func(context.Context, Config, []RunSpec, func(int, ReportJSON)) ([]ReportJSON, error)) error {
	var order []cellID // one per workload: its program and phased fields
	byWorkload := make(map[cellID][]int)
	for k, id := range p.ids {
		w := cellID{program: id.program, phased: id.phased}
		if _, ok := byWorkload[w]; !ok {
			order = append(order, w)
		}
		byWorkload[w] = append(byWorkload[w], k)
	}
	for _, w := range order {
		ks := byWorkload[w]
		specs := make([]RunSpec, len(ks))
		for i, k := range ks {
			specs[i] = p.ids[k].spec
		}
		reports, err := runCells(ctx, w.config(cfg), specs, nil)
		if err != nil {
			return err
		}
		for i, k := range ks {
			for _, dst := range p.dsts[k] {
				*dst = reports[i]
			}
		}
	}
	return nil
}

// Rate rules: which of the requested issue rates an experiment runs.

// lastRate keeps the fastest requested rate (the ablations).
func lastRate(rates []uint64) []uint64 { return rates[len(rates)-1:] }

// firstAndLast keeps the two ends of the requested sweep (verdict).
func firstAndLast(rates []uint64) []uint64 { return []uint64{rates[0], rates[len(rates)-1]} }

// pinRate ignores the request and runs one fixed rate.
func pinRate(mhz uint64) func([]uint64) []uint64 {
	return func([]uint64) []uint64 { return []uint64{mhz} }
}

// paperExperiments returns the paper's tables and figures and the
// §6.3 ablations, in paper order.
func paperExperiments() []Experiment {
	pair := []SystemKind{BaselineDM, RAMpage}
	noSwitch := []bool{false, false}
	levels := &docForm{systems: pair, switchTrace: noSwitch, text: figLevelsText}
	return []Experiment{
		{ID: "table1", Title: "Table 1: % bandwidth efficiency, Direct Rambus vs disk",
			expand: textOnly(func(Config) string { return dram.FormatTable1(dram.Table1()) })},
		{ID: "table2", Title: "Table 2: workload inventory (synthetic profiles)", expand: textOnly(table2Text)},
		{ID: "table3", Title: "Table 3: run times, baseline direct-mapped L2 vs RAMpage",
			form: &docForm{systems: pair, switchTrace: noSwitch, text: table3Text}},
		{ID: "table4", Title: "Table 4: RAMpage with context switches on misses",
			form: &docForm{systems: []SystemKind{RAMpageCS, RAMpage}, switchTrace: []bool{true, false}, text: table4Text}},
		{ID: "table5", Title: "Table 5: 2-way associative L2 with context switches",
			form: &docForm{systems: []SystemKind{TwoWayL2}, switchTrace: []bool{true}, text: table5Text}},
		{ID: "fig2", Title: "Figure 2: fraction of time per level, 200MHz", rates: pinRate(200), form: levels},
		{ID: "fig3", Title: "Figure 3: fraction of time per level, 4GHz", rates: pinRate(4000), form: levels},
		{ID: "fig4", Title: "Figure 4: TLB miss + page fault handling overheads", rates: pinRate(1000),
			form: &docForm{systems: pair, switchTrace: noSwitch, text: fig4Text}},
		{ID: "fig5", Title: "Figure 5: RAMpage-CS vs 2-way L2 relative speed", expand: expandFig5},
		{ID: "bigtlb", Title: "Ablation X1 (§6.3): 1K-entry 2-way TLB", rates: lastRate, expand: timeTable(
			"RAMpage run time (s) with the paper TLB (64 fully-assoc) vs a 1K-entry 2-way TLB (§6.3):\n",
			"page", 12, []string{"tlb-64", "tlb-1k"},
			RunSpec{System: RAMpage}, RunSpec{System: RAMpage, TLBEntries: 1024, TLBAssoc: 2})},
		{ID: "pipelined", Title: "Ablation X2 (§6.3): pipelined Direct Rambus", rates: lastRate, expand: timeTable(
			"RAMpage-CS run time (s), unpipelined vs pipelined Direct Rambus (§6.3):\n",
			"page", 12, []string{"unpipelined", "pipelined"},
			RunSpec{System: RAMpageCS, SwitchTrace: true}, RunSpec{System: RAMpageCS, SwitchTrace: true, PipelinedDRAM: true})},
		{ID: "victim", Title: "Ablation X3 (§3.2): victim cache on the baseline", rates: lastRate, expand: timeTable(
			"Baseline direct-mapped L2 run time (s), with and without a 16-entry victim cache (§3.2):\n",
			"block", 12, []string{"plain", "victim"},
			RunSpec{System: BaselineDM}, RunSpec{System: BaselineDM, VictimEntries: 16})},
		{ID: "biglone", Title: "Ablation (§6.3): aggressive 64KB 8-way L1", rates: lastRate, expand: timeTable(
			"Run time (s) with the aggressive L1 of §6.3 (64KB each, 8-way):\n",
			"size", 14, []string{"2way-bigL1", "rampage-bigL1"},
			RunSpec{System: TwoWayL2, SwitchTrace: true, L1Bytes: 64 << 10, L1Assoc: 8},
			RunSpec{System: RAMpageCS, SwitchTrace: true, L1Bytes: 64 << 10, L1Assoc: 8})},
	}
}

// textOnly is the expansion of an experiment with no cells.
func textOnly(text func(Config) string) func(*plan, Config, []uint64, []uint64) fold {
	return func(_ *plan, cfg Config, _, _ []uint64) fold {
		return func() (string, error) { return text(cfg), nil }
	}
}

// ablation expands the layout the ablations and most extensions
// share: every arm — a spec that differs from the others only in the
// knob under study — runs at each size, at the one rate the
// experiment's rule leaves. The fold writes head, then one line per
// size: the size, then line's rendering of that size's arm reports.
func ablation(arms []RunSpec, head func(*strings.Builder), line func(*strings.Builder, []ReportJSON)) func(*plan, Config, []uint64, []uint64) fold {
	return func(p *plan, _ Config, rates, sizes []uint64) fold {
		cols := make([][]ReportJSON, len(arms))
		for a, arm := range arms {
			cols[a] = p.grid(arm, rates, sizes)[0]
		}
		return func() (string, error) {
			var b strings.Builder
			head(&b)
			reps := make([]ReportJSON, len(arms))
			for j, size := range sizes {
				for a := range arms {
					reps[a] = cols[a][j]
				}
				fmt.Fprintf(&b, "%-10s", mem.FormatSize(size))
				line(&b, reps)
			}
			return b.String(), nil
		}
	}
}

// timeTable is the ablation layout that compares run times only:
// intro, a header naming first and each arm's label right-aligned in
// width w, then each arm's seconds per size in the same width.
func timeTable(intro, first string, w int, labels []string, arms ...RunSpec) func(*plan, Config, []uint64, []uint64) fold {
	return ablation(arms, func(b *strings.Builder) {
		b.WriteString(intro)
		fmt.Fprintf(b, "%-10s", first)
		for _, l := range labels {
			fmt.Fprintf(b, " %*s", w, l)
		}
		b.WriteString("\n")
	}, func(b *strings.Builder, reps []ReportJSON) {
		for _, r := range reps {
			fmt.Fprintf(b, " %*.4f", w, r.Seconds)
		}
		b.WriteString("\n")
	})
}

// --- Table 2 ---

func table2Text(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-36s %10s %10s\n", "program", "description", "ifetch(M)", "total(M)")
	profiles := synth.Table2()
	var sumI, sumT float64
	for _, p := range profiles {
		fmt.Fprintf(&b, "%-12s %-36s %10.1f %10.1f\n", p.Name, p.Description, p.IFetchMillions, p.TotalMillions)
		sumI += p.IFetchMillions
		sumT += p.TotalMillions
	}
	fmt.Fprintf(&b, "%-12s %-36s %10.1f %10.1f\n", "TOTAL", "", sumI, sumT)
	fmt.Fprintf(&b, "\nconfigured scales: refs x%.5f, sizes x%.4f => ~%.1fM simulated references\n",
		cfg.RefScale, cfg.SizeScale, sumT*cfg.RefScale)
	return b.String()
}

// --- Table 3 ---

func table3Text(doc ExperimentDoc, _ []ReportJSON) string {
	rates, sizes := doc.RatesMHz, doc.SizesBytes
	base, rp := doc.Systems[0].Rows, doc.Systems[1].Rows
	var b strings.Builder
	b.WriteString("Elapsed simulated time (s); per issue rate: baseline direct-mapped L2 on top, RAMpage below.\n")
	// The paper's layout: each rate's baseline row, RAMpage's below it.
	labels := make([]string, 2*len(rates))
	for i, l := range clocks(rates) {
		labels[2*i] = l
	}
	b.WriteString(formatGrid(labels, sizes, func(i, j int) string {
		row := base
		if i%2 == 1 {
			row = rp
		}
		return fmt.Sprintf("%.4f", row[i/2][j].Seconds)
	}))
	b.WriteString("\nbest-vs-best:\n")
	for i, mhz := range rates {
		bi, bb := best(base[i])
		ri, rr := best(rp[i])
		gain := float64(bb.Cycles)/float64(rr.Cycles) - 1
		fmt.Fprintf(&b, "  %7s: baseline %.4fs @%s, rampage %.4fs @%s => rampage %+.1f%%\n",
			mem.MustClock(mhz), bb.Seconds, mem.FormatSize(sizes[bi]),
			rr.Seconds, mem.FormatSize(sizes[ri]), 100*gain)
	}
	return b.String()
}

// --- Table 4 ---

func table4Text(doc ExperimentDoc, _ []ReportJSON) string {
	rates, sizes := doc.RatesMHz, doc.SizesBytes
	cs, plain := doc.Systems[0].Rows, doc.Systems[1].Rows
	var b strings.Builder
	b.WriteString("RAMpage with context switches on misses: run times (s) and speedup vs RAMpage without switches.\n")
	b.WriteString(formatGrid(clocks(rates), sizes, func(i, j int) string {
		return fmt.Sprintf("%.4f", cs[i][j].Seconds)
	}))
	b.WriteString("\nspeedup vs no switch (same page size):\n")
	b.WriteString(formatGrid(clocks(rates), sizes, func(i, j int) string {
		return fmt.Sprintf("%.3f", float64(plain[i][j].Cycles)/float64(cs[i][j].Cycles))
	}))
	b.WriteString("\nbest-time speedup per issue rate:\n")
	for i, mhz := range rates {
		_, bc := best(cs[i])
		_, bp := best(plain[i])
		fmt.Fprintf(&b, "  %7s: %.3fx\n", mem.MustClock(mhz), float64(bp.Cycles)/float64(bc.Cycles))
	}
	return b.String()
}

// --- Table 5 ---

func table5Text(doc ExperimentDoc, _ []ReportJSON) string {
	tw := doc.Systems[0].Rows
	var b strings.Builder
	b.WriteString("2-way associative L2 (random replacement) with context-switch traces: run times (s).\n")
	b.WriteString(formatGrid(clocks(doc.RatesMHz), doc.SizesBytes, func(i, j int) string {
		return fmt.Sprintf("%.4f", tw[i][j].Seconds)
	}))
	return b.String()
}

// --- Figures 2 & 3 ---

// figLevelsText renders Figures 2 and 3 from their one-rate document:
// each system's fraction of run time per level, as a table and as
// stacked bars.
func figLevelsText(doc ExperimentDoc, _ []ReportJSON) string {
	clock := mem.MustClock(doc.RatesMHz[0])
	var b strings.Builder
	for i, name := range []string{"direct-mapped L2", "RAMpage"} {
		row := doc.Systems[i].Rows[0]
		fmt.Fprintf(&b, "%s @%s — fraction of run time per level:\n", name, clock)
		fmt.Fprintf(&b, "  %-8s", "size")
		for l := stats.Level(0); l < stats.NumLevels; l++ {
			fmt.Fprintf(&b, " %8s", l)
		}
		fmt.Fprintf(&b, " %8s\n", "CPU")
		blocks := make([]uint64, len(row))
		for j, size := range doc.SizesBytes {
			r := row[j]
			blocks[j] = r.BlockBytes
			fmt.Fprintf(&b, "  %-8s", mem.FormatSize(size))
			var acc float64
			for l := stats.Level(0); l < stats.NumLevels; l++ {
				f := r.LevelFraction(l)
				acc += f
				fmt.Fprintf(&b, " %7.1f%%", 100*f)
			}
			fmt.Fprintf(&b, " %7.1f%%\n", 100*(1-acc))
		}
		b.WriteString("\n")
		b.WriteString(stats.FormatLevelBars(blocks, func(j int, l stats.Level) float64 { return row[j].LevelFraction(l) }, 60))
		b.WriteString("\n")
	}
	return b.String()
}

// --- Figure 4 ---

func fig4Text(doc ExperimentDoc, _ []ReportJSON) string {
	base, rp := doc.Systems[0].Rows[0], doc.Systems[1].Rows[0]
	var b strings.Builder
	b.WriteString("TLB miss + page fault handling overhead (handler refs / benchmark refs):\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "size", "baseline", "rampage")
	for j, size := range doc.SizesBytes {
		fmt.Fprintf(&b, "%-10s %11.1f%% %11.1f%%\n", mem.FormatSize(size),
			100*base[j].OverheadRatio, 100*rp[j].OverheadRatio)
	}
	return b.String()
}

// --- Figure 5 ---

func expandFig5(p *plan, _ Config, rates, sizes []uint64) fold {
	cs := p.grid(RunSpec{System: RAMpageCS, SwitchTrace: true}, rates, sizes)
	tw := p.grid(RunSpec{System: TwoWayL2, SwitchTrace: true}, rates, sizes)
	return func() (string, error) {
		var b strings.Builder
		b.WriteString("Relative slowdown vs the best time at each issue rate (0 = best; n means 1.n x slower).\n")
		b.WriteString("\nRAMpage (context switches on misses):\n")
		b.WriteString(relativeGrid(rates, sizes, cs, tw, cs))
		b.WriteString("\n2-way associative L2:\n")
		b.WriteString(relativeGrid(rates, sizes, cs, tw, tw))
		return b.String(), nil
	}
}

// relativeGrid renders the Figure 5 measure for one of the two systems
// (show) against the per-rate best across both.
func relativeGrid(rates, sizes []uint64, cs, tw, show [][]ReportJSON) string {
	return formatGrid(clocks(rates), sizes, func(i, j int) string {
		_, bc := best(cs[i])
		_, bt := best(tw[i])
		return fmt.Sprintf("%.3f", float64(show[i][j].Cycles)/float64(min(bc.Cycles, bt.Cycles))-1)
	})
}

// --- grid formatting ---

// best returns the index and report of the fastest cell in a row.
func best(row []ReportJSON) (int, ReportJSON) {
	b := 0
	for i, r := range row {
		if r.Cycles < row[b].Cycles {
			b = i
		}
	}
	return b, row[b]
}

// clocks labels grid rows with their issue rates.
func clocks(rates []uint64) []string {
	labels := make([]string, len(rates))
	for i, mhz := range rates {
		labels[i] = mem.MustClock(mhz).String()
	}
	return labels
}

// formatGrid renders rows over the size columns: row i is labelled
// labels[i], and cell(i, j) is its text in column j, right-aligned in
// eight characters.
func formatGrid(labels []string, sizes []uint64, cell func(i, j int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "issue")
	for _, s := range sizes {
		fmt.Fprintf(&b, " %8s", mem.FormatSize(s))
	}
	b.WriteString("\n")
	for i, label := range labels {
		fmt.Fprintf(&b, "%-8s", label)
		for j := range sizes {
			fmt.Fprintf(&b, " %8s", cell(i, j))
		}
		b.WriteString("\n")
	}
	return b.String()
}
