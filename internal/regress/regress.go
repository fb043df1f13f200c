// Package regress compares experiment result documents and benchmark
// snapshots against committed goldens. It is the comparator behind the
// tools/regress CLI (which stays a thin wrapper) and the server's
// POST /v1/compare endpoint, so the gate logic — exact report diffs
// with version checking, tolerance-based bench comparison, the
// checkpoint cold/warm ratio gate, hard errors for missing files —
// lives in exactly one place.
//
// Throughout, the first argument is the golden (want) and the second
// the candidate (got). A nil diff slice means the documents match; a
// non-nil error means the comparison itself was impossible (malformed
// input, missing file, mismatched schema version) and should be
// treated as a hard failure, not a divergence list.
package regress

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

func loadJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// IsDir reports whether the path names a directory — the CLI uses it
// to pick between file and directory report mode.
func IsDir(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}

// CompareReportDirs diffs every *.json under two directories. The file
// sets must be identical: a document present on only one side is a
// hard error, not a skip — a deleted golden or a missing candidate
// must fail the gate, never silently shrink it.
func CompareReportDirs(goldenDir, gotDir string) ([]string, error) {
	goldenFiles, err := jsonSet(goldenDir)
	if err != nil {
		return nil, err
	}
	gotFiles, err := jsonSet(gotDir)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(goldenFiles))
	for name := range goldenFiles {
		names[name] = true
	}
	for name := range gotFiles {
		names[name] = true
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no *.json documents under %s or %s", goldenDir, gotDir)
	}
	ordered := make([]string, 0, len(names))
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)
	var diffs []string
	for _, name := range ordered {
		switch {
		case !goldenFiles[name]:
			return nil, fmt.Errorf("%s exists only in %s — no golden to compare against (stale or deleted golden?)", name, gotDir)
		case !gotFiles[name]:
			return nil, fmt.Errorf("%s exists only in %s — candidate never produced it", name, goldenDir)
		}
		fileDiffs, err := CompareReportFiles(filepath.Join(goldenDir, name), filepath.Join(gotDir, name))
		if err != nil {
			return nil, err
		}
		for _, d := range fileDiffs {
			diffs = append(diffs, name+": "+d)
		}
	}
	return diffs, nil
}

// jsonSet lists the *.json file names directly under dir.
func jsonSet(dir string) (map[string]bool, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, de := range dirents {
		if !de.IsDir() && filepath.Ext(de.Name()) == ".json" {
			set[de.Name()] = true
		}
	}
	return set, nil
}

// CompareReportFiles diffs two simulator JSON documents exactly.
func CompareReportFiles(goldenPath, gotPath string) ([]string, error) {
	var golden, got any
	if err := loadJSON(goldenPath, &golden); err != nil {
		return nil, err
	}
	if err := loadJSON(gotPath, &got); err != nil {
		return nil, err
	}
	return CompareReportValues(golden, got)
}

// CompareReportBytes diffs two serialized simulator JSON documents
// exactly — the in-memory form of CompareReportFiles, used by the
// server's compare endpoint.
func CompareReportBytes(golden, got []byte) ([]string, error) {
	var gv, cv any
	if err := json.Unmarshal(golden, &gv); err != nil {
		return nil, fmt.Errorf("golden document: %w", err)
	}
	if err := json.Unmarshal(got, &cv); err != nil {
		return nil, fmt.Errorf("candidate document: %w", err)
	}
	return CompareReportValues(gv, cv)
}

// CompareReportValues diffs two decoded JSON documents exactly, after
// refusing a comparison across schema versions.
func CompareReportValues(golden, got any) ([]string, error) {
	if gv, ok := version(golden); ok {
		if cv, ok := version(got); ok && gv != cv {
			return nil, fmt.Errorf("schema version mismatch: golden v%d, got v%d — regenerate the golden", gv, cv)
		}
	}
	return diffValues("$", golden, got, nil), nil
}

// version extracts a document's schema version when present.
func version(doc any) (int, bool) {
	m, ok := doc.(map[string]any)
	if !ok {
		return 0, false
	}
	v, ok := m["version"].(float64)
	return int(v), ok
}

// MaxDiffs bounds a diff report so a wholesale divergence stays
// readable.
const MaxDiffs = 50

// diffValues recursively compares two decoded JSON values, appending
// human-readable mismatches with their paths.
func diffValues(path string, want, got any, diffs []string) []string {
	if len(diffs) >= MaxDiffs {
		return diffs
	}
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return append(diffs, fmt.Sprintf("%s: golden is an object, got %T", path, got))
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s: missing in candidate", path, k))
				continue
			}
			diffs = diffValues(path+"."+k, w[k], gv, diffs)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s: not in golden", path, k))
			}
		}
		return diffs
	case []any:
		g, ok := got.([]any)
		if !ok {
			return append(diffs, fmt.Sprintf("%s: golden is an array, got %T", path, got))
		}
		if len(w) != len(g) {
			return append(diffs, fmt.Sprintf("%s: length %d, got %d", path, len(w), len(g)))
		}
		for i := range w {
			diffs = diffValues(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], diffs)
		}
		return diffs
	default:
		if !reflect.DeepEqual(want, got) {
			diffs = append(diffs, fmt.Sprintf("%s: golden %v, got %v", path, want, got))
		}
		return diffs
	}
}

// BenchResult is the subset of a tools/benchjson entry the bench mode
// compares.
type BenchResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

// bestByName folds repeated -count samples to each benchmark's minimum
// ns/op, preserving first-seen order.
func bestByName(results []BenchResult) ([]string, map[string]float64) {
	best := make(map[string]float64)
	var order []string
	for _, r := range results {
		if v, ok := best[r.Name]; !ok || r.NsPerOp < v {
			if !ok {
				order = append(order, r.Name)
			}
			best[r.Name] = r.NsPerOp
		}
	}
	return order, best
}

// CompareBench checks every golden benchmark exists in the candidate
// and did not regress beyond tol (relative). New benchmarks in the
// candidate are fine; improvements are fine. With subset, golden
// benchmarks absent from the candidate are skipped (the candidate ran
// a filtered -bench pattern) instead of failing.
//
// Snapshots with zero benchmark names in common are refused outright:
// tolerance comparison of disjoint name sets either fails on every
// golden entry (noise) or, under -subset, vacuously passes — both mean
// the two files almost certainly came from different benchmark tags.
func CompareBench(golden, got []BenchResult, tol float64, subset bool) ([]string, error) {
	order, want := bestByName(golden)
	_, have := bestByName(got)
	overlap := 0
	for _, name := range order {
		if _, ok := have[name]; ok {
			overlap++
		}
	}
	if overlap == 0 {
		return nil, fmt.Errorf("no benchmark names in common (golden has %d, candidate %d) — different tags? refusing a comparison that cannot detect regressions", len(want), len(have))
	}
	var diffs []string
	for _, name := range order {
		g, ok := have[name]
		if !ok {
			if !subset {
				diffs = append(diffs, fmt.Sprintf("%s: missing from candidate", name))
			}
			continue
		}
		w := want[name]
		if w <= 0 {
			continue
		}
		if rel := g/w - 1; rel > tol {
			diffs = append(diffs, fmt.Sprintf("%s: %.0f ns/op vs golden %.0f (%+.1f%% > %+.1f%% allowed)",
				name, g, w, 100*rel, 100*tol))
		}
	}
	return diffs, nil
}

// CompareBenchFiles is CompareBench over two snapshot files, refusing
// a nonsensical tolerance or an empty golden.
func CompareBenchFiles(goldenPath, gotPath string, tol float64, subset bool) ([]string, error) {
	if tol < 0 || math.IsNaN(tol) {
		return nil, fmt.Errorf("bad -tol %v", tol)
	}
	var golden, got []BenchResult
	if err := loadJSON(goldenPath, &golden); err != nil {
		return nil, err
	}
	if err := loadJSON(gotPath, &got); err != nil {
		return nil, err
	}
	if len(golden) == 0 {
		return nil, fmt.Errorf("%s: no benchmark entries", goldenPath)
	}
	return CompareBench(golden, got, tol, subset)
}

// bestMatching returns the minimum ns/op among benchmarks whose name
// contains substr; zero when none match.
func bestMatching(results []BenchResult, substr string) float64 {
	var best float64
	for _, r := range results {
		if strings.Contains(r.Name, substr) && r.NsPerOp > 0 && (best == 0 || r.NsPerOp < best) {
			best = r.NsPerOp
		}
	}
	return best
}

// Ratio is one checkpoint payoff: the best ns/op of a slow benchmark
// over that of a fast one.
type Ratio struct {
	Slow, Fast string
	Value      float64
}

// ratioPairs are the payoffs a checkpoint snapshot must show: a warm
// sweep against the cold one, and a complete restore against a resumed
// run of the same spec and budget.
var ratioPairs = []struct{ slow, fast string }{
	{"SweepCheckpointCold", "SweepCheckpointWarm"},
	{"RunCheckpointResume", "RunCheckpointComplete"},
}

// CompareRatio gates the warm-state checkpoint payoffs recorded in one
// benchjson snapshot (BENCH_checkpoint.json): the cold sweep's best
// ns/op over the warm sweep's, and the resumed run's over the complete
// restore's, must each be at least minRatio. Each side takes its
// minimum sample, the least noisy one, since interference only slows a
// benchmark down. It returns the ratios in that order; a snapshot
// missing any of the four benchmarks is an error, and each ratio below
// minRatio is one diff.
func CompareRatio(results []BenchResult, minRatio float64) ([]Ratio, []string, error) {
	var (
		ratios []Ratio
		diffs  []string
	)
	for _, p := range ratioPairs {
		slow, fast := bestMatching(results, p.slow), bestMatching(results, p.fast)
		if slow == 0 || fast == 0 {
			return nil, nil, fmt.Errorf("snapshot is missing Benchmark%s or Benchmark%s (%s=%v %s=%v)", p.slow, p.fast, p.slow, slow, p.fast, fast)
		}
		r := Ratio{Slow: p.slow, Fast: p.fast, Value: slow / fast}
		if r.Value < minRatio {
			diffs = append(diffs, fmt.Sprintf("%s is only %.1fx faster than %s (want >= %.1fx): %.0f vs %.0f ns/op", p.fast, r.Value, p.slow, minRatio, fast, slow))
		}
		ratios = append(ratios, r)
	}
	return ratios, diffs, nil
}

// CompareRatioFile is CompareRatio over a snapshot file.
func CompareRatioFile(path string, minRatio float64) ([]Ratio, []string, error) {
	var results []BenchResult
	if err := loadJSON(path, &results); err != nil {
		return nil, nil, err
	}
	return CompareRatio(results, minRatio)
}
