// Command regress compares a freshly generated result against a
// committed golden and exits non-zero on divergence. It has two modes:
//
//	# Exact comparison of simulator JSON documents (rampage-bench
//	# -format json / rampage-sim -format json). Simulated data is
//	# deterministic for a given seed, so every field must match.
//	go run ./tools/regress -mode report testdata/golden/table3.json /tmp/table3.json
//
//	# Directory comparison: every *.json in either tree must exist in
//	# the other and match exactly. A file present on only one side —
//	# including a golden that was deleted or never regenerated — is a
//	# hard error (exit 2), so a golden gate cannot silently pass on a
//	# missing file.
//	go run ./tools/regress -mode report testdata/golden /tmp/served
//
//	# Tolerance comparison of BENCH_batch.json-style snapshots
//	# (tools/benchjson output). Wall-clock numbers are noisy, so each
//	# benchmark's best (minimum) ns/op may regress by at most -tol
//	# (relative). Improvements never fail.
//	go run ./tools/regress -mode bench -tol 0.05 BENCH_batch.json /tmp/bench.json
//
//	# Ratio gate on one snapshot (make bench-checkpoint output): the
//	# best cold checkpoint sweep must be at least -min times slower
//	# than the best warm one, and the best resumed run at least -min
//	# times slower than the best complete restore.
//	go run ./tools/regress -mode ratio -min 3 BENCH_checkpoint.json
//
// In the two-file modes the first path is the golden (want), the
// second the candidate (got).
//
// The comparator itself lives in internal/regress (the server's
// POST /v1/compare endpoint shares it); this command is a thin CLI
// wrapper around it.
package main

import (
	"flag"
	"fmt"
	"os"

	"rampage/internal/regress"
)

// Aliases into the shared comparator. Keeping the CLI's historical
// names lets the existing output-pinning tests run unchanged against
// the extracted package, proving the extraction changed nothing.
var (
	compareReportFiles = regress.CompareReportFiles
	compareReportDirs  = regress.CompareReportDirs
	compareBench       = regress.CompareBench
	compareBenchFiles  = regress.CompareBenchFiles
	compareRatioFile   = regress.CompareRatioFile
	isDir              = regress.IsDir
)

type benchResult = regress.BenchResult

func main() {
	mode := flag.String("mode", "report", "comparison mode: report (exact), bench (ns/op tolerance), ratio (checkpoint speedups)")
	tol := flag.Float64("tol", 0.05, "bench mode: allowed relative ns/op regression per benchmark")
	subset := flag.Bool("subset", false, "bench mode: the candidate covers only some golden benchmarks; skip the rest instead of failing")
	minRatio := flag.Float64("min", 3, "ratio mode: minimum checkpoint speedup (cold/warm sweep and resume/complete run)")
	flag.Parse()
	if *mode == "ratio" {
		os.Exit(ratioMode(flag.Args(), *minRatio))
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: regress [-mode report|bench] [-tol frac] golden.json got.json\n       regress -mode ratio [-min ratio] BENCH_checkpoint.json")
		os.Exit(2)
	}
	goldenPath, gotPath := flag.Arg(0), flag.Arg(1)
	var (
		diffs []string
		err   error
	)
	switch *mode {
	case "report":
		if isDir(goldenPath) || isDir(gotPath) {
			diffs, err = compareReportDirs(goldenPath, gotPath)
		} else {
			diffs, err = compareReportFiles(goldenPath, gotPath)
		}
	case "bench":
		diffs, err = compareBenchFiles(goldenPath, gotPath, *tol, *subset)
	default:
		err = fmt.Errorf("unknown mode %q (want report, bench or ratio)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "regress:", err)
		os.Exit(2)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "regress: %s diverges from %s:\n", gotPath, goldenPath)
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		os.Exit(1)
	}
	fmt.Printf("regress: %s matches %s\n", gotPath, goldenPath)
}

// ratioMode gates one checkpoint benchmark snapshot on its speedups,
// returning the exit code.
func ratioMode(args []string, minRatio float64) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: regress -mode ratio [-min ratio] BENCH_checkpoint.json")
		return 2
	}
	ratios, diffs, err := compareRatioFile(args[0], minRatio)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regress:", err)
		return 2
	}
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "regress: %s: %s\n", args[0], d)
	}
	if len(diffs) > 0 {
		return 1
	}
	for _, r := range ratios {
		fmt.Printf("regress: %s: %s %.1fx faster than %s (>= %.1fx required)\n", args[0], r.Fast, r.Value, r.Slow, minRatio)
	}
	return 0
}
