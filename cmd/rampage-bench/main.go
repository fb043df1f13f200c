// Command rampage-bench regenerates the paper's tables and figures.
// Every experiment expands into simulation cells, and its text — and,
// for the seven with a JSON form, its versioned document — is folded
// from the cells' reports. Running several experiments simulates each
// distinct cell once.
//
// Usage:
//
//	rampage-bench -exp table3            # one experiment, scaled default
//	rampage-bench -exp all -scale quick  # everything, fast
//	rampage-bench -exp all -outdir DIR   # <id>.txt each, <id>.json for JSON forms
//	rampage-bench -list                  # what exists
//
// Experiments (see DESIGN.md for the per-experiment index):
//
//   - the paper's artifacts: table1 table2 table3 table4 table5 fig2
//     fig3 fig4 fig5;
//   - the ablations: bigtlb pipelined victim biglone;
//   - the extensions: sdram threads adaptive perbench prefetch channels
//     banked phased;
//   - the policy lab, policies, and the self-checks verdict and warmup.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"rampage/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id, or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.String("scale", "default", "workload scale: quick, default, full")
		rates    = flag.String("rates", "", "comma-separated issue rates in MHz (default: paper sweep)")
		sizes    = flag.String("sizes", "", "comma-separated block/page sizes in bytes (default: paper sweep)")
		seed     = flag.Uint64("seed", 42, "deterministic seed")
		sweep    = flag.String("sweep", "", "raw sweep mode: run this system (baseline, 2way, rampage, rampage-cs) over the grid and emit CSV on stdout")
		polFlag  = flag.String("policy", "", "with -sweep on a RAMpage system: SRAM page replacement policy (clock, fifo, random, awrp, bandwidth)")
		parallel = flag.Int("parallel", 0, "sweep worker count (0 = one per CPU); results are identical at any setting")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		format   = flag.String("format", "text", "output format: text, json (versioned experiment documents; tables 3-5, figs 2-4 and policies)")
		outDir   = flag.String("outdir", "", "write each experiment here instead of stdout: <id>.txt, and <id>.json for one with a JSON form (-format json: the .json files only)")
		verify   = flag.Bool("verify", false, "run under the oracle invariant checker: assert machine invariants online and fail on the first violation (results are unchanged, runs are slower)")
	)
	flag.Parse()

	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("unknown format %q (want text or json)", *format))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
		}()
	}

	if *list || (*exp == "" && *sweep == "") {
		fmt.Println("available experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" {
			fmt.Println("\nrun one with: rampage-bench -exp <id>")
		}
		return
	}

	cfg, err := harness.ConfigForScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg.Seed = *seed
	cfg.Workers = *parallel
	cfg.Verify = *verify

	rateList, err := harness.ParseGridList(*rates)
	if err != nil {
		fatal(fmt.Errorf("bad -rates: %w", err))
	}
	sizeList, err := harness.ParseGridList(*sizes)
	if err != nil {
		fatal(fmt.Errorf("bad -sizes: %w", err))
	}

	// Ctrl-C (and SIGTERM) cancel the sweeps so a long run dies cleanly
	// instead of finishing the whole grid after the interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweep != "" {
		if err := runSweepCSV(ctx, cfg, *sweep, *polFlag, rateList, sizeList); err != nil {
			fatalOrInterrupted(err)
		}
		return
	}

	selected := harness.Experiments()
	if *exp != "all" {
		e, ok := harness.FindExperiment(*exp)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; use -list", *exp))
		}
		selected = []harness.Experiment{e}
	}
	if *format == "json" {
		if selected, err = jsonForms(selected, *exp == "all", *outDir); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	arts, err := harness.RunExperiments(ctx, cfg, selected, rateList, sizeList)
	if err != nil {
		fatalOrInterrupted(err)
	}
	switch {
	case *outDir != "":
		err = writeArtifacts(*outDir, selected, arts, *format == "text")
	case *format == "json":
		err = harness.WriteJSON(os.Stdout, arts[0].Doc)
	default:
		for i, e := range selected {
			fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
			fmt.Println(arts[i].Text)
		}
		fmt.Printf("(%s in %v)\n", *exp, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		fatal(err)
	}
}

// jsonForms keeps the selected experiments that have a JSON form. The
// others are skipped with a note when running "all" and refused when
// named. Without -outdir only one document can go to stdout, so the
// output pipes cleanly into tools/regress.
func jsonForms(selected []harness.Experiment, all bool, outDir string) ([]harness.Experiment, error) {
	var out []harness.Experiment
	for _, e := range selected {
		if !e.HasJSONForm() {
			if all {
				fmt.Fprintf(os.Stderr, "rampage-bench: skipping %s (no JSON form)\n", e.ID)
				continue
			}
			return nil, fmt.Errorf("experiment %q has no JSON form (JSON covers tables 3-5, figs 2-4 and policies)", e.ID)
		}
		out = append(out, e)
	}
	if outDir == "" && len(out) > 1 {
		return nil, fmt.Errorf("multiple JSON experiments need -outdir")
	}
	return out, nil
}

// writeArtifacts writes each experiment's text to dir/<id>.txt (when
// text is set) and, for one with a JSON form, its document to
// dir/<id>.json.
func writeArtifacts(dir string, exps []harness.Experiment, arts []harness.Artifact, text bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, data []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rampage-bench: wrote %s\n", path)
		return nil
	}
	for i, e := range exps {
		if text {
			if err := write(e.ID+".txt", []byte(arts[i].Text)); err != nil {
				return err
			}
		}
		if doc := arts[i].Doc; doc != nil {
			var buf bytes.Buffer
			if err := harness.WriteJSON(&buf, doc); err != nil {
				return err
			}
			if err := write(e.ID+".json", buf.Bytes()); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSweepCSV runs one system across the grid and writes CSV rows to
// stdout for external plotting.
func runSweepCSV(ctx context.Context, cfg harness.Config, system, policy string, rates, sizes []uint64) error {
	kind, err := harness.ParseSystemKind(system)
	if err != nil {
		return err
	}
	if len(rates) == 0 {
		rates = harness.IssueRatesMHz
	}
	if len(sizes) == 0 {
		sizes = harness.BlockSizes
	}
	switchTrace := kind == harness.TwoWayL2 || kind == harness.RAMpageCS
	base := harness.RunSpec{System: kind, SwitchTrace: switchTrace, Policy: policy}
	grid, err := harness.SweepSpec(ctx, cfg, base, rates, sizes)
	if err != nil {
		return err
	}
	return harness.WriteSweepCSV(os.Stdout, rates, sizes, grid)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rampage-bench:", err)
	os.Exit(1)
}

// fatalOrInterrupted treats context cancellation (Ctrl-C) as a clean
// interrupt with the conventional 130 exit status.
func fatalOrInterrupted(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "rampage-bench: interrupted")
		os.Exit(130)
	}
	fatal(err)
}
