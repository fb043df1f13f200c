package regress

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenDir locates the repo's committed golden documents.
const goldenDir = "../../testdata/golden"

func goldenFiles(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no goldens under %s", goldenDir)
	}
	return paths
}

// TestGoldensSelfCompare runs every committed golden against itself
// through each comparator entry point: all must report zero diffs.
func TestGoldensSelfCompare(t *testing.T) {
	for _, path := range goldenFiles(t) {
		diffs, err := CompareReportFiles(path, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(diffs) != 0 {
			t.Fatalf("%s differs from itself: %v", path, diffs)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		diffs, err = CompareReportBytes(raw, raw)
		if err != nil || len(diffs) != 0 {
			t.Fatalf("%s bytes self-compare = (%v, %v)", path, diffs, err)
		}
	}
	diffs, err := CompareReportDirs(goldenDir, goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("golden directory differs from itself: %v", diffs)
	}
}

// perturb decodes a document, applies edit, and re-encodes it.
func perturb(t *testing.T, path string, edit func(doc map[string]any)) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPerturbedGoldenDiverges checks a single changed leaf in each
// golden produces a diff naming its path, and that diff counts are
// bounded by MaxDiffs.
func TestPerturbedGoldenDiverges(t *testing.T) {
	for _, path := range goldenFiles(t) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := perturb(t, path, func(doc map[string]any) {
			doc["title"] = "tampered"
		})
		diffs, err := CompareReportBytes(raw, got)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(diffs) == 0 {
			t.Fatalf("%s: tampered title not detected", path)
		}
		found := false
		for _, d := range diffs {
			if strings.Contains(d, "$.title") {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: diffs %v never name $.title", path, diffs)
		}
		if len(diffs) > MaxDiffs {
			t.Fatalf("%s: %d diffs exceed MaxDiffs", path, len(diffs))
		}
	}
}

// TestVersionMismatchIsHardError checks cross-version comparison
// refuses rather than diffing.
func TestVersionMismatchIsHardError(t *testing.T) {
	path := goldenFiles(t)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := perturb(t, path, func(doc map[string]any) {
		doc["version"] = float64(999)
	})
	if _, err := CompareReportBytes(raw, got); err == nil || !strings.Contains(err.Error(), "schema version mismatch") {
		t.Fatalf("cross-version compare error = %v, want a schema version refusal", err)
	}
}

// TestCompareReportDirsMissingFile checks a one-sided document is a
// hard error in either direction, never a silent skip.
func TestCompareReportDirsMissingFile(t *testing.T) {
	a := t.TempDir()
	b := t.TempDir()
	doc := []byte(`{"version":1,"kind":"experiment"}`)
	for _, dir := range []string{a, b} {
		if err := os.WriteFile(filepath.Join(dir, "shared.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(a, "only-golden.json"), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareReportDirs(a, b); err == nil || !strings.Contains(err.Error(), "candidate never produced it") {
		t.Fatalf("missing candidate error = %v", err)
	}
	if err := os.Remove(filepath.Join(a, "only-golden.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(b, "only-candidate.json"), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareReportDirs(a, b); err == nil || !strings.Contains(err.Error(), "no golden to compare against") {
		t.Fatalf("missing golden error = %v", err)
	}
}

// TestCompareBench covers the tolerance comparison: regressions beyond
// tol fail, improvements and new benchmarks pass, subset mode skips
// missing entries, and disjoint name sets are refused.
func TestCompareBench(t *testing.T) {
	golden := []BenchResult{
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: "BenchmarkA", NsPerOp: 90}, // repeated samples fold to the min
		{Name: "BenchmarkB", NsPerOp: 200},
	}
	ok := []BenchResult{
		{Name: "BenchmarkA", NsPerOp: 93},  // +3.3% within 5%
		{Name: "BenchmarkB", NsPerOp: 150}, // improvement
		{Name: "BenchmarkC", NsPerOp: 1},   // new benchmark: fine
	}
	diffs, err := CompareBench(golden, ok, 0.05, false)
	if err != nil || len(diffs) != 0 {
		t.Fatalf("within-tolerance compare = (%v, %v)", diffs, err)
	}

	slow := []BenchResult{
		{Name: "BenchmarkA", NsPerOp: 120}, // +33% over the 90 floor
		{Name: "BenchmarkB", NsPerOp: 200},
	}
	diffs, err = CompareBench(golden, slow, 0.05, false)
	if err != nil || len(diffs) != 1 || !strings.Contains(diffs[0], "BenchmarkA") {
		t.Fatalf("regression compare = (%v, %v)", diffs, err)
	}

	partial := []BenchResult{{Name: "BenchmarkA", NsPerOp: 90}}
	if diffs, err = CompareBench(golden, partial, 0.05, false); err != nil || len(diffs) != 1 {
		t.Fatalf("missing benchmark without -subset = (%v, %v)", diffs, err)
	}
	if diffs, err = CompareBench(golden, partial, 0.05, true); err != nil || len(diffs) != 0 {
		t.Fatalf("missing benchmark with -subset = (%v, %v)", diffs, err)
	}

	disjoint := []BenchResult{{Name: "BenchmarkZ", NsPerOp: 1}}
	if _, err = CompareBench(golden, disjoint, 0.05, false); err == nil || !strings.Contains(err.Error(), "different tags?") {
		t.Fatalf("disjoint compare error = %v, want a refusal", err)
	}
}

// TestCompareRatioPassesAndFails pins the ratio mode: for the sweeps
// and for the single runs, the best slow sample over the best fast
// sample, other benchmarks ignored, each gated at the minimum.
func TestCompareRatioPassesAndFails(t *testing.T) {
	results := []BenchResult{
		{Name: "BenchmarkSweepCheckpointCold", NsPerOp: 150e6},
		{Name: "BenchmarkSweepCheckpointCold", NsPerOp: 145e6}, // best cold
		{Name: "BenchmarkSweepCheckpointWarm", NsPerOp: 1.4e6},
		{Name: "BenchmarkSweepCheckpointWarm", NsPerOp: 1.3e6}, // best warm
		{Name: "BenchmarkRunCheckpointResume-2", NsPerOp: 24e6},
		{Name: "BenchmarkRunCheckpointResume-2", NsPerOp: 23e6}, // best resume
		{Name: "BenchmarkRunCheckpointComplete-2", NsPerOp: 0.2e6},
		{Name: "BenchmarkRunCheckpointComplete-2", NsPerOp: 0.25e6},
		{Name: "BenchmarkSimRAMpageThroughput", NsPerOp: 50e6}, // ignored
	}
	ratios, diffs, err := CompareRatio(results, 3)
	if err != nil || len(diffs) != 0 {
		t.Fatalf("CompareRatio = (%v, %v)", diffs, err)
	}
	want := []Ratio{
		{Slow: "SweepCheckpointCold", Fast: "SweepCheckpointWarm", Value: 145e6 / 1.3e6},
		{Slow: "RunCheckpointResume", Fast: "RunCheckpointComplete", Value: 23e6 / 0.2e6},
	}
	if !reflect.DeepEqual(ratios, want) {
		t.Errorf("ratios = %+v, want best-sample ratios %+v", ratios, want)
	}
	if _, diffs, err := CompareRatio(results, 112); err != nil || len(diffs) != 1 || !strings.Contains(diffs[0], "SweepCheckpointWarm") {
		t.Errorf("112x requirement: diffs %v, err %v; want the sweep's shortfall alone", diffs, err)
	}
	if _, diffs, err := CompareRatio(results, 200); err != nil || len(diffs) != 2 {
		t.Errorf("200x requirement: diffs %v, err %v; want two shortfalls", diffs, err)
	}

	// A complete restore that costs what the resumed run does, as when
	// the restore regenerates the executed prefix, fails on its own.
	slowRestore := append([]BenchResult(nil), results...)
	slowRestore[6].NsPerOp, slowRestore[7].NsPerOp = 17e6, 18e6
	if _, diffs, err := CompareRatio(slowRestore, 3); err != nil || len(diffs) != 1 || !strings.Contains(diffs[0], "RunCheckpointComplete") {
		t.Errorf("a slow complete restore: diffs %v, err %v; want its shortfall alone", diffs, err)
	}
}

// TestCompareRatioRefusesIncompleteSnapshot pins that a snapshot
// missing any of the four benchmarks, or no snapshot at all, is a hard
// error rather than a pass.
func TestCompareRatioRefusesIncompleteSnapshot(t *testing.T) {
	full := []BenchResult{
		{Name: "BenchmarkSweepCheckpointCold", NsPerOp: 150e6},
		{Name: "BenchmarkSweepCheckpointWarm", NsPerOp: 1.3e6},
		{Name: "BenchmarkRunCheckpointResume", NsPerOp: 23e6},
		{Name: "BenchmarkRunCheckpointComplete", NsPerOp: 0.2e6},
	}
	if _, _, err := CompareRatio(full, 3); err != nil {
		t.Fatalf("full snapshot: %v", err)
	}
	for drop := range full {
		partial := append(append([]BenchResult(nil), full[:drop]...), full[drop+1:]...)
		if _, _, err := CompareRatio(partial, 3); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("snapshot without %s: err = %v, want missing-benchmark error", full[drop].Name, err)
		}
	}
	if _, _, err := CompareRatio(nil, 3); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, _, err := CompareRatioFile(filepath.Join(t.TempDir(), "BENCH_checkpoint.json"), 3); err == nil {
		t.Error("missing snapshot file accepted")
	}
}

func TestIsDir(t *testing.T) {
	if !IsDir(t.TempDir()) {
		t.Error("IsDir(tempdir) = false")
	}
	if IsDir(filepath.Join(t.TempDir(), "nope")) {
		t.Error("IsDir(missing) = true")
	}
}
