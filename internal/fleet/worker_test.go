package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rampage/internal/checkpoint"
	"rampage/internal/harness"
	"rampage/internal/jobs"
	"rampage/internal/metrics"
)

func tinyConfig() harness.Config {
	cfg := harness.QuickScaled()
	cfg.RefScale = 1.0 / 10000
	return cfg
}

// coordServer mounts a coordinator behind an httptest server whose
// backing coordinator can be swapped (simulating a restart).
type coordServer struct {
	mu sync.Mutex
	c  *Coordinator
	ts *httptest.Server
}

func newCoordServer(t *testing.T, c *Coordinator) *coordServer {
	t.Helper()
	cs := &coordServer{c: c}
	cs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs.mu.Lock()
		cur := cs.c
		cs.mu.Unlock()
		mux := http.NewServeMux()
		cur.Routes(mux)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(cs.ts.Close)
	return cs
}

func (cs *coordServer) swap(c *Coordinator) {
	cs.mu.Lock()
	cs.c = c
	cs.mu.Unlock()
}

// memCheckpoints returns a memory-only checkpoint store with an 8 MiB
// budget.
func memCheckpoints(t *testing.T) *checkpoint.Store {
	t.Helper()
	s, err := checkpoint.NewStore(8<<20, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// localCell is the coordinator's Local seam as the server wires it:
// one orphaned cell through RunLocal, here with no checkpoint store.
func localCell(ctx context.Context, cell CellSpec) (report []byte, err error) {
	if stop := RunLocal(ctx, []CellSpec{cell}, nil, 1, func(_ int, r []byte, e error) { report, err = r, e }); stop != nil {
		return nil, stop
	}
	return report, err
}

func startWorker(t *testing.T, url, name string) (*Worker, chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		CoordinatorURL: url,
		Name:           name,
		Parallel:       2,
		Checkpoints:    memCheckpoints(t),
		Stats:          &metrics.ServiceStats{},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		<-done
	})
	go func() { done <- w.Run(ctx) }()
	return w, done
}

// fleetDoc serves one experiment document through the coordinator:
// the expand, RunCells and fold steps the server runs.
func fleetDoc(ctx context.Context, c *Coordinator, cfg harness.Config, id string, rates, sizes []uint64, done func(int, harness.ReportJSON)) ([]byte, error) {
	sh, err := harness.ShapeOf(id, rates, sizes)
	if err != nil {
		return nil, err
	}
	reports, err := c.RunCells(ctx, cfg, sh.CellSpecs(), done)
	if err != nil {
		return nil, err
	}
	doc, err := sh.Doc(reports)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = harness.WriteJSON(&buf, doc)
	return buf.Bytes(), err
}

// waitForWorkers polls until n workers are live.
func waitForWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d live workers", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerExecutesExperiment drives the whole loop end to end in
// process: a worker leases a real (tiny) experiment grid over HTTP,
// simulates it, streams results back, and the coordinator's assembled
// document is byte-identical to the local harness build.
func TestWorkerExecutesExperiment(t *testing.T) {
	stats := &metrics.ServiceStats{}
	c := NewCoordinator(CoordinatorConfig{
		LeaseTTL:     2 * time.Second,
		PollInterval: 20 * time.Millisecond,
		Stats:        stats,
		Local: func(ctx context.Context, cell CellSpec) ([]byte, error) {
			t.Error("local fallback ran with a live worker")
			return localCell(ctx, cell)
		},
	})
	cs := newCoordServer(t, c)
	startWorker(t, cs.ts.URL, "tw")
	waitForWorkers(t, c, 1)

	cfg := tinyConfig()
	rates, sizes := []uint64{200, 400}, []uint64{1 << 12}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var cellsDone int
	got, err := fleetDoc(ctx, c, cfg, "table3", rates, sizes, func(int, harness.ReportJSON) { cellsDone++ })
	if err != nil {
		t.Fatal(err)
	}

	doc, err := harness.BuildExperimentDoc(ctx, cfg, "table3", rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("fleet document differs from local build (%d vs %d bytes)", len(got), buf.Len())
	}
	if cellsDone == 0 {
		t.Error("progress callback never fired")
	}
	if n := stats.Get(metrics.SvcFleetCompleted); n == 0 {
		t.Error("no cells completed through the fleet")
	}
	if n := stats.Get(metrics.SvcFleetLocal); n != 0 {
		t.Errorf("fleet_cells_local = %d with a live worker", n)
	}
}

// TestWorkerMemoizesReLeasedCells pins the worker-side result store:
// when the coordinator leases the same cells a second time (here
// because it has no store of its own, as after a restart that lost its
// cache), the worker answers every cell from its local DiskStore with
// ZERO re-simulation, and the assembled document is byte-identical.
func TestWorkerMemoizesReLeasedCells(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{
		LeaseTTL:     2 * time.Second,
		PollInterval: 20 * time.Millisecond,
		Local: func(ctx context.Context, cell CellSpec) ([]byte, error) {
			t.Error("local fallback ran with a live worker")
			return localCell(ctx, cell)
		},
	})
	cs := newCoordServer(t, c)

	disk, err := jobs.NewDiskStore(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{
		CoordinatorURL: cs.ts.URL,
		Name:           "memo",
		Parallel:       2,
		Checkpoints:    memCheckpoints(t),
		Disk:           disk,
		Stats:          &metrics.ServiceStats{},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan error, 1)
	t.Cleanup(func() {
		wcancel()
		<-wdone
	})
	go func() { wdone <- w.Run(wctx) }()
	waitForWorkers(t, c, 1)

	cfg := tinyConfig()
	rates, sizes := []uint64{200, 400}, []uint64{1 << 12}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	first, err := fleetDoc(ctx, c, cfg, "table3", rates, sizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	simulated := w.Simulated()
	if simulated == 0 {
		t.Fatal("first pass simulated nothing")
	}
	if disk.Len() == 0 {
		t.Fatal("no cell results written back to the worker store")
	}

	// Same experiment again: the coordinator (storeless) re-leases every
	// cell; the worker must serve all of them from disk.
	second, err := fleetDoc(ctx, c, cfg, "table3", rates, sizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Simulated(); got != simulated {
		t.Errorf("re-leased cells re-simulated: %d runs after second pass, want %d", got, simulated)
	}
	if !bytes.Equal(first, second) {
		t.Error("memoized document differs from the simulated one")
	}
}

// TestWorkerSurvivesCoordinatorRestart pins the re-register path: the
// backing coordinator is replaced (fresh state, no registrations), and
// the worker — told it is unknown — re-registers and keeps serving.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	mkCoord := func() *Coordinator {
		return NewCoordinator(CoordinatorConfig{
			LeaseTTL:     2 * time.Second,
			PollInterval: 20 * time.Millisecond,
			Local: func(ctx context.Context, cell CellSpec) ([]byte, error) {
				return localCell(ctx, cell)
			},
		})
	}
	c1 := mkCoord()
	cs := newCoordServer(t, c1)
	startWorker(t, cs.ts.URL, "tw")
	waitForWorkers(t, c1, 1)

	// "Restart" the coordinator: fresh state, no registrations.
	c2 := mkCoord()
	cs.swap(c2)

	cfg := tinyConfig()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := fleetDoc(ctx, c2, cfg, "table3", []uint64{200}, []uint64{1 << 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("empty document")
	}
	// The worker, told it is unknown, must re-register with the new
	// coordinator and keep serving.
	waitForWorkers(t, c2, 1)
}

// TestWorkerDrain pins graceful worker shutdown: Drain finishes the
// loop, deregisters and Run returns nil.
func TestWorkerDrain(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{
		LeaseTTL:     2 * time.Second,
		PollInterval: 10 * time.Millisecond,
		Local: func(ctx context.Context, cell CellSpec) ([]byte, error) {
			return localCell(ctx, cell)
		},
	})
	cs := newCoordServer(t, c)
	w, done := startWorker(t, cs.ts.URL, "tw")
	waitForWorkers(t, c, 1)
	w.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after Drain")
	}
	if n := c.LiveWorkers(); n != 0 {
		t.Errorf("LiveWorkers = %d after drain, want 0", n)
	}
	done <- nil // satisfy the cleanup reader
}

// lossyTransport lets lease/register traffic through but swallows
// /complete calls (blocking until released, then failing) — the
// network shape of a worker that dies after simulating but before its
// result lands, which forces the requeue path deterministically.
type lossyTransport struct {
	base     http.RoundTripper
	released chan struct{}
}

func (l *lossyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/complete") {
		<-l.released
		return nil, errors.New("victim died")
	}
	return l.base.RoundTrip(r)
}

// TestWorkerHardStopRequeues pins the chaos path in process: a worker
// holding a lease dies without deregistering (its result never
// arrives); the coordinator requeues at the lease deadline and a
// second worker finishes the job.
func TestWorkerHardStopRequeues(t *testing.T) {
	stats := &metrics.ServiceStats{}
	c := NewCoordinator(CoordinatorConfig{
		LeaseTTL:     300 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
		Stats:        stats,
		Local: func(ctx context.Context, cell CellSpec) ([]byte, error) {
			return localCell(ctx, cell)
		},
	})
	cs := newCoordServer(t, c)

	released := make(chan struct{})
	victim, verr := NewWorker(WorkerConfig{
		CoordinatorURL: cs.ts.URL,
		Name:           "victim",
		Parallel:       1,
		Client:         &http.Client{Transport: &lossyTransport{base: http.DefaultTransport, released: released}},
		Logf:           t.Logf,
	})
	if verr != nil {
		t.Fatal(verr)
	}
	vctx, vcancel := context.WithCancel(context.Background())
	vdone := make(chan error, 1)
	go func() { vdone <- victim.Run(vctx) }()

	cfg := tinyConfig()
	type result struct {
		data []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		data, err := fleetDoc(ctx, c, cfg, "table3", []uint64{200}, []uint64{1 << 12}, nil)
		resCh <- result{data, err}
	}()

	// Wait until the victim holds a lease, then kill it without
	// deregistering.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := c.Status(); st.Leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	vcancel()
	close(released)
	<-vdone

	// A rescuer joins; the requeued cells flow to it and the document
	// completes.
	startWorker(t, cs.ts.URL, "rescuer")
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.data) == 0 {
		t.Fatal("empty document")
	}
	if n := stats.Get(metrics.SvcFleetRequeued); n < 1 {
		t.Errorf("fleet_cells_requeued = %d, want >= 1", n)
	}
}

// completions is a stand-in coordinator for driving executeBatch
// directly: it accepts every call and records the completions in
// arrival order.
type completions struct {
	mu   sync.Mutex
	reqs []CompleteRequest
}

func (c *completions) list() []CompleteRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CompleteRequest(nil), c.reqs...)
}

// batchWorker returns a worker talking to a fresh stand-in coordinator.
func batchWorker(t *testing.T, parallel int, ckpts *checkpoint.Store) (*Worker, *completions) {
	t.Helper()
	rec := &completions{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/v1/complete" {
			var req CompleteRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("complete body: %v", err)
			}
			rec.mu.Lock()
			rec.reqs = append(rec.reqs, req)
			rec.mu.Unlock()
		}
		io.WriteString(w, "{}")
	}))
	t.Cleanup(ts.Close)
	w, err := NewWorker(WorkerConfig{
		CoordinatorURL: ts.URL,
		Parallel:       parallel,
		Checkpoints:    ckpts,
		Stats:          &metrics.ServiceStats{},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, rec
}

// wireCell is the leased form of one cell under cfg.
func wireCell(t *testing.T, cfg harness.Config, spec harness.RunSpec) CellSpec {
	t.Helper()
	wc, ok := harness.NewWireConfig(cfg)
	if !ok {
		t.Fatal("configuration is not wireable")
	}
	return CellSpec{Key: harness.CellKey(wc.Config(), spec), Config: wc, Spec: spec}
}

// cellBytes is the report a coordinator expects for a cell: its
// ReportJSON bytes from a direct run.
func cellBytes(t *testing.T, cell CellSpec) []byte {
	t.Helper()
	rep, err := harness.Run(context.Background(), cell.Config.Config(), cell.Spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(harness.NewReportJSON(rep))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkerCompletesCheckpointedCellFirst pins warmest-first order
// within a leased batch: a cell whose complete checkpoint the worker's
// store holds completes before the cold cell leased ahead of it.
func TestWorkerCompletesCheckpointedCellFirst(t *testing.T) {
	cfg := tinyConfig()
	ckpts := memCheckpoints(t)
	cold := wireCell(t, cfg, harness.RunSpec{System: harness.BaselineDM, IssueMHz: 400, SizeBytes: 1 << 12})
	warm := wireCell(t, cfg, harness.RunSpec{System: harness.RAMpage, IssueMHz: 400, SizeBytes: 1 << 12})
	stored := cfg
	stored.Checkpoints = ckpts
	if _, err := harness.Run(context.Background(), stored, warm.Spec); err != nil {
		t.Fatal(err)
	}

	w, rec := batchWorker(t, 1, ckpts)
	w.executeBatch(context.Background(), []CellSpec{cold, warm})
	got := rec.list()
	if len(got) != 2 || got[0].Key != warm.Key || got[1].Key != cold.Key {
		t.Fatalf("completion order = %v, want the checkpointed cell first", got)
	}
	for i, cell := range []CellSpec{warm, cold} {
		if got[i].Error != "" || !bytes.Equal(got[i].Report, cellBytes(t, cell)) {
			t.Errorf("cell %s completed with %q / %s, want its direct-run report", shortKey(cell.Key), got[i].Error, got[i].Report)
		}
	}
	if n := w.Simulated(); n != 2 {
		t.Errorf("Simulated = %d, want 2", n)
	}
}

// TestWorkerRunsMixedConfigurationBatch pins a batch that interleaves
// cells of two configurations: every cell completes with its own
// configuration's report.
func TestWorkerRunsMixedConfigurationBatch(t *testing.T) {
	a, b := tinyConfig(), tinyConfig()
	b.Seed = 7
	var batch []CellSpec
	for _, rate := range []uint64{200, 1000} {
		for _, cfg := range []harness.Config{a, b} {
			batch = append(batch, wireCell(t, cfg, harness.RunSpec{System: harness.RAMpage, IssueMHz: rate, SizeBytes: 1 << 10}))
		}
	}
	w, rec := batchWorker(t, 2, memCheckpoints(t))
	w.executeBatch(context.Background(), batch)
	got := make(map[string]CompleteRequest)
	for _, req := range rec.list() {
		got[req.Key] = req
	}
	if len(got) != len(batch) {
		t.Fatalf("%d distinct cells completed, want %d", len(got), len(batch))
	}
	for _, cell := range batch {
		req := got[cell.Key]
		if req.Error != "" || !bytes.Equal(req.Report, cellBytes(t, cell)) {
			t.Errorf("cell seed %d @ %d MHz completed with %q / %s, want its direct-run report", cell.Config.Seed, cell.Spec.IssueMHz, req.Error, req.Report)
		}
	}
}

// TestWorkerFailedGroupCompletesUnfinishedCells pins failure
// accounting: when a configuration group's run fails, every cell of
// that group that did not finish completes with the error (so the
// coordinator charges each an attempt), while cells that finished and
// other groups complete with their reports.
func TestWorkerFailedGroupCompletesUnfinishedCells(t *testing.T) {
	a, b := tinyConfig(), tinyConfig()
	b.Seed = 7
	good := wireCell(t, a, harness.RunSpec{System: harness.RAMpage, IssueMHz: 1000, SizeBytes: 1 << 10})
	bad := wireCell(t, a, harness.RunSpec{System: harness.RAMpage, IssueMHz: 1000, SizeBytes: 3})
	after := wireCell(t, a, harness.RunSpec{System: harness.BaselineDM, IssueMHz: 1000, SizeBytes: 1 << 10})
	other := wireCell(t, b, harness.RunSpec{System: harness.RAMpage, IssueMHz: 1000, SizeBytes: 1 << 10})

	// One pool goroutine runs group a in lease order: good finishes,
	// bad fails and after never starts.
	w, rec := batchWorker(t, 1, nil)
	w.executeBatch(context.Background(), []CellSpec{good, bad, other, after})
	got := make(map[string]CompleteRequest)
	for _, req := range rec.list() {
		got[req.Key] = req
	}
	if len(got) != 4 {
		t.Fatalf("%d cells completed, want 4", len(got))
	}
	for _, cell := range []CellSpec{good, other} {
		if req := got[cell.Key]; req.Error != "" || !bytes.Equal(req.Report, cellBytes(t, cell)) {
			t.Errorf("cell %s completed with %q, want its report", shortKey(cell.Key), req.Error)
		}
	}
	for _, cell := range []CellSpec{bad, after} {
		if req := got[cell.Key]; !strings.Contains(req.Error, "not a positive power of two") || req.Report != nil {
			t.Errorf("cell %s completed with %q / %s, want the group's error", shortKey(cell.Key), req.Error, req.Report)
		}
	}
	if n := w.Simulated(); n != 2 {
		t.Errorf("Simulated = %d, want 2", n)
	}
}
