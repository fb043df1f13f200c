// Command rampage-sim runs one memory-hierarchy simulation point and
// prints its full report: elapsed simulated time, per-level time
// breakdown, and event counts.
//
// Usage:
//
//	rampage-sim [flags]
//
// Examples:
//
//	# RAMpage with 1KB SRAM pages at a 1GHz issue rate, scaled workload
//	rampage-sim -system rampage -mhz 1000 -size 1024
//
//	# The paper's baseline at 4GHz with 128B L2 blocks, quick scale
//	rampage-sim -system baseline -mhz 4000 -size 128 -scale quick
//
//	# RAMpage with context switches on misses, full paper scale (slow!)
//	rampage-sim -system rampage-cs -mhz 4000 -size 4096 -scale full -switchtrace
//
//	# Replay a trace file written by rampage-trace on the paper's 2-way
//	# L2; -scale and the spec flags (-victim, -tlb, -policy, -sdram,
//	# -prefetch, ...) build the machine exactly as for a synthetic run
//	rampage-sim -tracefile all.rmpt -system 2way -mhz 1000 -size 128
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"rampage/internal/harness"
	"rampage/internal/metrics"
	"rampage/internal/sim"
	"rampage/internal/trace"
)

func main() {
	var (
		system      = flag.String("system", "rampage", "system to simulate: baseline, 2way, rampage, rampage-cs")
		mhz         = flag.Uint64("mhz", 1000, "CPU issue rate in MHz (200..4000)")
		size        = flag.Uint64("size", 1024, "L2 block size / SRAM page size in bytes (128..4096)")
		scale       = flag.String("scale", "default", "workload scale: quick, default, full")
		switchTrace = flag.Bool("switchtrace", false, "interleave the ~400-ref context-switch trace at each switch")
		maxRefs     = flag.Uint64("maxrefs", 0, "stop after this many application references (0 = all)")
		procs       = flag.Int("procs", 0, "limit to the first N Table 2 programs (0 = all 18)")
		seed        = flag.Uint64("seed", 42, "deterministic seed")
		victim      = flag.Int("victim", 0, "attach an N-entry victim cache (conventional systems)")
		tlbEntries  = flag.Int("tlb", 0, "override TLB entries (0 = paper default 64)")
		tlbAssoc    = flag.Int("tlbassoc", 0, "TLB associativity with -tlb (0 = fully associative)")
		pipelined   = flag.Bool("pipelined", false, "pipelined Direct Rambus channel")
		sdram       = flag.Bool("sdram", false, "use the wide SDRAM device instead of Direct Rambus")
		threads     = flag.Bool("threads", false, "lightweight thread switches on misses (with -system rampage-cs)")
		adaptive    = flag.Bool("adaptive", false, "dynamic SRAM page sizing (with -system rampage; -size is the initial page)")
		policyName  = flag.String("policy", "", "SRAM page replacement policy for RAMpage systems: clock (default), fifo, random, awrp, bandwidth")
		prefetch    = flag.Bool("prefetch", false, "sequential next-page prefetch (RAMpage systems)")
		banked      = flag.Bool("banked", false, "banked open-row RDRAM timing instead of the flat model")
		channels    = flag.Int("channels", 1, "stripe the DRAM across N Rambus channels")
		traceFile   = flag.String("tracefile", "", "replay a binary trace file instead of the synthetic workload, on the machine -system, -scale and the spec flags build (no scheduler; not for rampage-cs)")
		format      = flag.String("format", "text", "output format: text, json (versioned report document)")
		snapEvery   = flag.Uint64("snapinterval", 0, "with -format json: cut a metrics snapshot every N simulated cycles (0 = none); snapshots fall at scheduler window boundaries, so a window that passes several boundaries cuts one snapshot and counts the rest as snapshots_skipped")
	)
	flag.Parse()

	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("unknown format %q (want text or json)", *format))
	}

	// Ctrl-C (and SIGTERM) cancel the run's context so a long
	// simulation dies cleanly at the next batch boundary instead of
	// running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := harness.ConfigForScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg.Seed = *seed
	cfg.MaxRefs = *maxRefs
	cfg.Processes = *procs

	kind, err := harness.ParseSystemKind(*system)
	if err != nil {
		fatal(err)
	}
	spec := harness.RunSpec{
		System:             kind,
		IssueMHz:           *mhz,
		SizeBytes:          *size,
		SwitchTrace:        *switchTrace,
		VictimEntries:      *victim,
		TLBEntries:         *tlbEntries,
		TLBAssoc:           *tlbAssoc,
		PipelinedDRAM:      *pipelined,
		SDRAM:              *sdram,
		LightweightThreads: *threads,
		AdaptivePages:      *adaptive,
		PrefetchNext:       *prefetch,
		BankedDRAM:         *banked,
		DRAMChannels:       *channels,
		Policy:             *policyName,
	}

	if *traceFile != "" {
		if err := replayFile(os.Stdout, *traceFile, cfg, spec, *format, *snapEvery); err != nil {
			fatal(err)
		}
		return
	}

	var col *metrics.Collector
	if *format == "json" {
		col = metrics.NewCollector(*snapEvery)
		cfg.Observer = col
	}
	rep, err := harness.Run(ctx, cfg, spec)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "rampage-sim: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}
	if *format == "json" {
		if err := harness.WriteJSON(os.Stdout, harness.NewRunDoc(rep, col)); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(rep.String())
}

// replayFile runs a binary trace file directly through the machine
// that cfg and spec build on the synthetic path (no scheduler,
// references in file order) and writes the report to w.
func replayFile(w io.Writer, path string, cfg harness.Config, spec harness.RunSpec, format string, snapEvery uint64) error {
	if spec.System == harness.RAMpageCS {
		return fmt.Errorf("-tracefile supports baseline, 2way and rampage (no scheduler for rampage-cs)")
	}
	// The adaptive controller's epoch spans one rotation of the
	// configured workload's processes, as on the synthetic path.
	readers, err := cfg.Readers()
	if err != nil {
		return err
	}
	machine, err := harness.NewMachine(cfg, spec, len(readers))
	if err != nil {
		return err
	}
	var col *metrics.Collector
	if format == "json" {
		col = metrics.NewCollector(snapEvery)
		machine.SetObserver(col)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewFileReader(f)
	if err != nil {
		return err
	}
	if err := sim.Replay(machine, r); err != nil {
		return err
	}
	if format == "json" {
		return harness.WriteJSON(w, harness.NewRunDoc(machine.Report(), col))
	}
	_, err = io.WriteString(w, machine.Report().String())
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rampage-sim:", err)
	os.Exit(1)
}
