package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rampage/internal/policy"
	"rampage/internal/synth"
)

// tinyConfig is small enough for unit tests: ~100k references.
func tinyConfig() Config {
	cfg := QuickScaled()
	cfg.RefScale = 1.0 / 10000
	return cfg
}

func TestSRAMBytes(t *testing.T) {
	cfg := FullScale()
	// §4.5: 4MB cache + 128KB of tags at 128B blocks = 4.125MB.
	if got := cfg.SRAMBytes(128); got != 4<<20+128<<10 {
		t.Errorf("SRAMBytes(128) = %d, want 4.125MB", got)
	}
	// The bonus scales down with page size: at 4KB it is one page.
	if got := cfg.SRAMBytes(4096); got != 4<<20+4<<10 {
		t.Errorf("SRAMBytes(4096) = %d, want 4MB+4KB", got)
	}
	// Always a whole number of pages.
	for _, p := range BlockSizes {
		if cfg.SRAMBytes(p)%p != 0 {
			t.Errorf("SRAMBytes(%d) not page-aligned", p)
		}
	}
}

func TestReaders(t *testing.T) {
	cfg := tinyConfig()
	readers, err := cfg.Readers()
	if err != nil {
		t.Fatal(err)
	}
	if len(readers) != 18 {
		t.Errorf("got %d readers, want 18", len(readers))
	}
	cfg.Processes = 3
	readers, err = cfg.Readers()
	if err != nil {
		t.Fatal(err)
	}
	if len(readers) != 3 {
		t.Errorf("got %d readers, want 3", len(readers))
	}
}

func TestRunAllSystems(t *testing.T) {
	cfg := tinyConfig()
	for _, sys := range []SystemKind{BaselineDM, TwoWayL2, RAMpage, RAMpageCS} {
		rep, err := Run(context.Background(), cfg, RunSpec{System: sys, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if rep.BenchRefs == 0 || rep.Cycles == 0 {
			t.Errorf("%s: empty run %+v", sys, rep)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	spec := RunSpec{System: RAMpageCS, IssueMHz: 2000, SizeBytes: 1024, SwitchTrace: true}
	a, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.PageFaults != b.PageFaults {
		t.Errorf("runs differ: %d/%d vs %d/%d cycles/faults", a.Cycles, a.PageFaults, b.Cycles, b.PageFaults)
	}
}

func TestSweepAndBest(t *testing.T) {
	cfg := tinyConfig()
	grid, err := SweepSpec(context.Background(), cfg, RunSpec{System: BaselineDM}, []uint64{200, 4000}, []uint64{256, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 2 {
		t.Fatalf("grid shape %dx%d, want 2x2", len(grid), len(grid[0]))
	}
	i, best := Best(grid[0])
	for _, r := range grid[0] {
		if r.Cycles < best.Cycles {
			t.Errorf("Best missed a faster cell")
		}
	}
	_ = i
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 13 {
		t.Fatalf("registry has %d experiments, want >= 13", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		// An experiment either has a JSON form, whose document its
		// text is rendered from, or expands into cells of its own.
		if e.Title == "" || (e.form == nil) == (e.expand == nil) {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "fig2", "fig3", "fig4", "fig5"} {
		if _, ok := FindExperiment(id); !ok {
			t.Errorf("paper artifact %q missing from registry", id)
		}
	}
	if _, ok := FindExperiment("nonesuch"); ok {
		t.Error("FindExperiment(nonesuch) succeeded")
	}
}

func TestTable1Experiment(t *testing.T) {
	e, _ := FindExperiment("table1")
	out, err := e.Run(context.Background(), tinyConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4096") || !strings.Contains(out, "rambus") {
		t.Errorf("table1 output unexpected:\n%s", out)
	}
}

func TestTable2Experiment(t *testing.T) {
	e, _ := FindExperiment("table2")
	out, err := e.Run(context.Background(), tinyConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alvinn", "compress", "yacc", "TOTAL"} {
		if !strings.Contains(out, name) {
			t.Errorf("table2 output missing %q", name)
		}
	}
}

// TestAllSimulationExperimentsRunTiny runs every experiment at the
// tiny scale on a two-rate, two-size grid and requires each text to
// match its golden byte for byte (testdata/golden/tiny/<id>.txt), both
// from one shared run and, for a few, from a run of their own.
func TestAllSimulationExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	cfg := tinyConfig()
	rates := []uint64{200, 4000}
	sizes := []uint64{256, 2048}
	exps := Experiments()
	arts, err := RunExperiments(context.Background(), cfg, exps, rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exps {
		want, err := os.ReadFile(filepath.Join(tinyGoldenDir, e.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := arts[i].Text; got != string(want) {
			t.Errorf("%s: text differs from its golden:\n%s", e.ID, firstDiff(string(want), got))
		}
		// One experiment on its own folds the same text.
		if e.ID == "table3" || e.ID == "policies" || e.ID == "adaptive" {
			if out, err := e.Run(context.Background(), cfg, rates, sizes); err != nil || out != string(want) {
				t.Errorf("%s run alone: %v\n%s", e.ID, err, firstDiff(string(want), out))
			}
		}
	}
}

// tinyGoldenDir holds every experiment's text at the tiny scale.
const tinyGoldenDir = "../../testdata/golden/tiny"

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "no line differs"
}

// TestRunExperimentsSimulatesEachCellOnce expands every experiment on
// the paper grid and runs the plan through a counting stand-in for
// RunCells. The pool must see each distinct cell exactly once — one
// call per workload: Table 2, each perbench program, the phased set —
// plus the policy lab's determinism rerun, which must stay a second
// simulation; and no phased cell may be answered by its Table 2 twin.
func TestRunExperimentsSimulatesEachCellOnce(t *testing.T) {
	cfg := tinyConfig()
	var p plan
	folds := map[string]func() (Artifact, error){}
	for _, e := range Experiments() {
		f, err := e.expandOn(&p, cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		folds[e.ID] = f
	}
	type call struct {
		cfg   Config
		specs []RunSpec
	}
	var calls []call
	sims := 0
	err := p.run(context.Background(), cfg, func(_ context.Context, c Config, specs []RunSpec, _ func(int, ReportJSON)) ([]ReportJSON, error) {
		calls = append(calls, call{c, specs})
		reports := make([]ReportJSON, len(specs))
		for k := range reports {
			sims++
			reports[k].Cycles = uint64(sims) // each simulation's own stamp
		}
		return reports, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// 367 distinct cells on the paper grid, plus the rerun.
	if sims != 368 {
		t.Errorf("simulated %d cells, want 367 distinct plus 1 rerun", sims)
	}
	if want := 2 + len(synth.Table2()); len(calls) != want {
		t.Errorf("%d RunCells calls, want %d (Table 2, each program, phased)", len(calls), want)
	}
	var table2, phased *call
	for i, c := range calls {
		switch {
		case c.cfg.profiles != nil:
			phased = &calls[i]
		case c.cfg.ProfileName == "":
			table2 = &calls[i]
		}
		// Within a call only the rerun may repeat a spec.
		seen := map[RunSpec]int{}
		for _, spec := range c.specs {
			seen[spec]++
		}
		for spec, n := range seen {
			rerun := spec == RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 4096, Policy: policy.AWRP}
			if n > 1 && !(rerun && n == 2 && c.cfg.profiles == nil && c.cfg.ProfileName == "") {
				t.Errorf("%+v simulated %d times in one call", spec, n)
			}
		}
	}
	if table2 == nil || phased == nil {
		t.Fatalf("no Table 2 or phased call among %d", len(calls))
	}

	// The rerun is a second simulation: its report is not the
	// document's awrp cell.
	art, err := folds["policies"]()
	if err != nil {
		t.Fatal(err)
	}
	var awrp uint64
	for _, g := range art.Doc.Systems {
		if g.System == SystemLabel(RAMpage, policy.AWRP) {
			awrp = g.Rows[0][len(g.Rows[0])-1].Cycles
		}
	}
	if awrp == 0 || strings.Contains(art.Text, fmt.Sprintf("awrp repeat: %d cycles", awrp)) {
		t.Errorf("the determinism rerun shares the awrp cell's report (%d cycles)", awrp)
	}

	// Every phased cell has a Table 2 twin, and neither answers the
	// other.
	twins := map[RunSpec]bool{}
	for _, spec := range table2.specs {
		twins[spec] = true
	}
	for _, spec := range phased.specs {
		if !twins[spec] {
			t.Errorf("phased cell %+v has no Table 2 twin", spec)
		}
	}
	if len(phased.specs) != 7 {
		t.Errorf("phased call ran %d cells, want 7 (six sizes plus adaptive)", len(phased.specs))
	}
}

func TestShapeRAMpageVsBaseline(t *testing.T) {
	// The headline claims of Table 3 at a reduced but meaningful scale:
	// RAMpage must lose at 128B pages (TLB overhead) and its best
	// configuration must improve relative to the baseline's best as the
	// CPU-DRAM gap grows.
	if testing.Short() {
		t.Skip("shape validation run")
	}
	cfg := QuickScaled()
	sizes := []uint64{128, 1024, 4096}
	gains := map[uint64]float64{}
	for _, mhz := range []uint64{200, 4000} {
		base, err := SweepSpec(context.Background(), cfg, RunSpec{System: BaselineDM}, []uint64{mhz}, sizes)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := SweepSpec(context.Background(), cfg, RunSpec{System: RAMpage}, []uint64{mhz}, sizes)
		if err != nil {
			t.Fatal(err)
		}
		// RAMpage at 128B pages must lose to the baseline at 128B
		// blocks when the clock is slow enough that handler execution
		// dominates (at 4GHz the baseline's DRAM stalls can outweigh
		// the handler overhead even at this page size).
		if mhz == 200 && rp[0][0].Cycles < base[0][0].Cycles {
			t.Errorf("@%dMHz RAMpage wins at 128B pages; TLB overhead should prevent that", mhz)
		}
		_, bb := Best(base[0])
		_, rb := Best(rp[0])
		gains[mhz] = float64(bb.Cycles) / float64(rb.Cycles)
	}
	if gains[4000] <= gains[200] {
		t.Errorf("RAMpage advantage did not grow with the CPU-DRAM gap: %.3f @200MHz vs %.3f @4GHz",
			gains[200], gains[4000])
	}
	if gains[4000] < 1.0 {
		t.Errorf("RAMpage best loses to baseline best at 4GHz (ratio %.3f)", gains[4000])
	}
}

func TestSystemKindString(t *testing.T) {
	want := map[SystemKind]string{
		BaselineDM: "baseline-dm", TwoWayL2: "l2-2way",
		RAMpage: "rampage", RAMpageCS: "rampage-cs", SystemKind(99): "unknown",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", k, got, s)
		}
	}
}
