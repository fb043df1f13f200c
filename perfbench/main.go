// Command perfbench is the repository's benchmark: it measures the
// simulator and the experiment service end to end and, in a traced
// run, layer by layer. See README.md in this directory.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sweep|runs|service --seed 42 --seconds 45 --trace 0|1
//	bash perfbench/run.sh summarise .bench_build/trace-service-42.json
//
// Each run prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report every end-to-end metric; traced runs report every per-layer
// metric and write their spans to .bench_build/.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupChildren is how many extra fresh processes only set up, so that
// setup_s is a median of setupChildren+1 samples. Set-up cannot repeat
// inside one process: the harness workload cache and the page-table
// arena pools are process-global.
const setupChildren = 4

// outDir holds everything a run leaves behind (spans, scratch stores),
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build"

// outcome is what a measured part produced.
type outcome struct {
	Attempted int
	Failures  []string
	E2E       map[string]float64 // end-to-end metrics other than setup_s and peak_rss_mb
	Layers    map[string]float64 // per-layer figures observed while measuring
}

func (o *outcome) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// newWorkload is the named workload's traffic mix at the seed. Its
// setup is timed as setup_s; measure runs for about the given budget
// and returns the end-to-end figures; probe (traced runs only) times
// the layers' public calls on the workload's own inputs; close
// releases what setup started.
func newWorkload(name string, seed uint64) (*served, error) {
	p, err := newPlan(name, seed)
	if err != nil {
		return nil, err
	}
	return newServed(p), nil
}

// metricUnits names every metric a run can report, end-to-end and
// per-layer, with its unit. BENCHMARK.json lists the same set.
var metricUnits = func() map[string]string {
	m := map[string]string{
		"setup_s":            "s",
		"mrefs_per_cpu_s":    "Mrefs/CPU-s",
		"peak_rss_mb":        "MB",
		"cold_first_cell_ms": "ms",
		"cold_done_ms":       "ms",
		"warm_done_ms":       "ms",
		"hit_done_ms":        "ms",
		"disk_hit_done_ms":   "ms",

		"run.wall_s":                "s",
		"run.cpu_s":                 "s",
		"go.gc_cpu_s":               "s",
		"go.alloc_mb":               "MB",
		"synth.gen_ns_per_ref":      "ns/ref",
		"trace.capture_ns_per_ref":  "ns/ref",
		"trace.workload_mb":         "MB",
		"sim.build_ms":              "ms",
		"tlb.lookup_ns":             "ns",
		"cache.access_ns":           "ns",
		"tlb.misses_per_kref":       "count/kref",
		"cache.l1_misses_per_kref":  "count/kref",
		"cache.l2_misses_per_kref":  "count/kref",
		"pagetable.faults_per_kref": "count/kref",
		"policy.scans_per_fault":    "count/fault",
		"dram.transfers_per_kref":   "count/kref",
		"dram.kb_per_kref":          "kB/kref",
		"checkpoint.capture_ms":     "ms",
		"checkpoint.restore_ms":     "ms",
		"checkpoint.kb_per_cell":    "kB",
		"checkpoint.hit_ratio":      "ratio",
		"harness.fold_ms":           "ms",
		"harness.doc_kb":            "kB",
		"jobs.disk_get_us":          "us",
		"jobs.disk_put_us":          "us",
		"jobs.reindex_ms":           "ms",
		"jobs.cache_hit_ratio":      "ratio",
		"jobs.disk_hit_ratio":       "ratio",
		"server.submit_ms":          "ms",
		"server.first_event_ms":     "ms",
		"server.event_us":           "us",
	}
	for _, p := range columnarPoints {
		m["sim.columnar_ns_per_ref."+p.System.String()] = "ns/ref"
	}
	for _, p := range runPoints {
		m["sim.row_ns_per_ref."+metricLabel(p.label)] = "ns/ref"
	}
	for _, pol := range policies {
		m["pagetable.fault_ns."+policyName(pol)] = "ns"
	}
	for _, tier := range tierNames {
		m["server."+tier+"_tail_ms"] = "ms"
		m["server."+tier+"_tail_pct"] = "%"
		m["server."+tier+"_samples"] = "count"
	}
	for _, name := range e2eNames {
		m["overhead."+name] = "ratio"
	}
	return m
}()

// e2eNames are the end-to-end metrics, in BENCHMARK.json order.
var e2eNames = []string{
	"setup_s", "mrefs_per_cpu_s", "peak_rss_mb", "cold_first_cell_ms",
	"cold_done_ms", "warm_done_ms", "hit_done_ms", "disk_hit_done_ms",
}

// metricLabel turns a grid label into a metric-name component
// ("rampage+fifo" -> "rampage-fifo").
func metricLabel(label string) string { return strings.ReplaceAll(label, "+", "-") }

// childResult is the one JSON line a child process prints.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	PeakRSSMB float64            `json:"peak_rss_mb,omitempty"`
	Attempted int                `json:"attempted,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	E2E       map[string]float64 `json:"e2e,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]metricEncoding `json:"metrics"`
}

type metricEncoding struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	role     string
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: sweep, runs or service")
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed (42 reproduces testdata/golden)")
	fs.IntVar(&o.seconds, "seconds", 45, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.role, "role", "", "internal: child process role (setup, measure or traced)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := newWorkload(o.workload, o.seed); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	switch o.role {
	case "", "setup", "measure", "traced":
	default:
		return o, fmt.Errorf("unknown --role %q", o.role)
	}
	return o, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summarise" {
		if err := summariseFiles(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.role != "" {
		err = runChild(o)
	} else {
		err = runParent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// checkCheckout refuses to run anywhere but the root of a checkout:
// the goldens the outputs are checked against live there.
func checkCheckout() error {
	for _, p := range []string{"go.mod", "testdata/golden/table3.json"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return os.MkdirAll(outDir, 0o755)
}

func summariseFiles(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return errors.New("usage: perfbench summarise <trace file>...")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		printSummary(w, tf)
	}
	return nil
}

// runChild is one fresh process: set up, then (unless only timing
// set-up) measure, and print a childResult line.
func runChild(o options) error {
	ctx := context.Background()
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	var tr *tracer
	if o.role == "traced" {
		tr = newTracer()
	}
	ph, err := startPhase()
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(ctx, tr); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	wall, busy, steal, err := ph.end()
	if err != nil {
		return err
	}
	// Set-up time is wall time less the hypervisor's steal, like the
	// service latencies.
	res := childResult{SetupS: wall * (1 - stealShare(busy, steal))}
	if o.role != "setup" {
		m, err := startMeter()
		if err != nil {
			return err
		}
		out, err := w.measure(ctx, time.Duration(o.seconds)*time.Second, tr)
		if err != nil {
			return fmt.Errorf("measure: %w", err)
		}
		diag, err := m.stop()
		if err != nil {
			return err
		}
		if res.PeakRSSMB, err = peakRSSMB(); err != nil {
			return err
		}
		res.E2E = out.E2E
		res.Layers = diag.metrics()
		for k, v := range out.Layers {
			res.Layers[k] = v
		}
		if tr != nil {
			probes, err := w.probe(ctx, tr, &out)
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			for k, v := range probes {
				res.Layers[k] = v
			}
			res.Spans = tr.snapshot()
		}
		res.Attempted, res.Failures = out.Attempted, out.Failures
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs this binary as a child in the given role and decodes its
// result line. The child's standard error passes through.
func spawn(o options, role string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--role", role)
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", role, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child output: %w", role, err)
	}
	return res, nil
}

// e2eOf is a measuring child's end-to-end metric set.
func e2eOf(setupS float64, c childResult) map[string]float64 {
	m := map[string]float64{"setup_s": setupS, "peak_rss_mb": c.PeakRSSMB}
	for k, v := range c.E2E {
		m[k] = v
	}
	return m
}

func runParent(o options) error {
	var setups []float64
	for i := 0; i < setupChildren; i++ {
		c, err := spawn(o, "setup")
		if err != nil {
			return err
		}
		setups = append(setups, c.SetupS)
	}
	meas, err := spawn(o, "measure")
	if err != nil {
		return err
	}
	setups = append(setups, meas.SetupS)
	attempted, failures := meas.Attempted, meas.Failures
	fmt.Println("diagnostics", jsonLine(meas.Layers))

	var metrics map[string]float64
	if o.trace == 0 {
		metrics = e2eOf(median(setups), meas)
	} else {
		traced, err := spawn(o, "traced")
		if err != nil {
			return err
		}
		attempted += traced.Attempted
		failures = append(failures, traced.Failures...)
		fmt.Println("traced diagnostics", jsonLine(traced.Layers))
		metrics = make(map[string]float64)
		for _, name := range perLayerNames() {
			if v, ok := traced.Layers[name]; ok {
				metrics[name] = v
			}
		}
		tf := traceFile{
			Workload: o.workload,
			Seed:     o.seed,
			// Like for like: each side's own single set-up.
			Untraced: e2eOf(meas.SetupS, meas),
			Traced:   e2eOf(traced.SetupS, traced),
			Spans:    traced.Spans,
		}
		for name, u := range tf.Untraced {
			metrics["overhead."+name] = overhead(tf.Traced[name], u)
		}
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		data, err := json.Marshal(tf)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		printSummary(os.Stdout, tf)
		fmt.Println("spans written to", path)
	}
	for i, f := range failures {
		if i == maxPrintedFailures {
			fmt.Printf("FAILED: ... and %d more\n", len(failures)-i)
			break
		}
		fmt.Println("FAILED:", f)
	}
	want := e2eNames
	if o.trace == 1 {
		want = perLayerNames()
	}
	return printResult(os.Stdout, attempted, len(failures), metrics, want)
}

// perLayerNames are the metrics a traced run reports: every declared
// metric that is not end-to-end, sorted.
func perLayerNames() []string {
	e2e := make(map[string]bool, len(e2eNames))
	for _, name := range e2eNames {
		e2e[name] = true
	}
	var names []string
	for name := range metricUnits {
		if !e2e[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// maxPrintedFailures bounds the failure lines a run prints.
const maxPrintedFailures = 20

func jsonLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// printResult prints the result line, which must hold exactly the
// wanted metrics: a run that could not measure one of them fails
// instead of printing a partial line.
func printResult(w io.Writer, attempted, failed int, metrics map[string]float64, want []string) error {
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricEncoding, len(want)),
	}
	var missing []string
	for _, name := range want {
		v, ok := metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metricEncoding{Value: v, Unit: metricUnits[name]}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run measured no %s", strings.Join(missing, ", "))
	}
	if len(res.Metrics) != len(metrics) {
		return fmt.Errorf("run reported %d metrics, want %d", len(metrics), len(want))
	}
	return json.NewEncoder(w).Encode(res)
}
