package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rampage/internal/harness"
	"rampage/internal/jobs"
	"rampage/internal/metrics"
)

// fakeCells fabricates wire cells with distinct content addresses; the
// coordinator's dispatch logic never looks inside Config/Spec.
func fakeCells(n int) []CellSpec {
	cells := make([]CellSpec, n)
	for i := range cells {
		cells[i] = CellSpec{Key: fmt.Sprintf("cell-%03d", i)}
	}
	return cells
}

func testCoordinator(t *testing.T, mutate func(*CoordinatorConfig)) (*Coordinator, *metrics.ServiceStats) {
	t.Helper()
	stats := &metrics.ServiceStats{}
	cfg := CoordinatorConfig{
		LeaseTTL:     200 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
		Stats:        stats,
		Local: func(ctx context.Context, cell CellSpec) ([]byte, error) {
			return []byte("local:" + cell.Key), nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewCoordinator(cfg), stats
}

func register(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	resp, err := c.Register(RegisterRequest{Version: ProtoVersion, Name: name, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return resp.WorkerID
}

// execAsync starts Execute in the background and returns its results.
func execAsync(c *Coordinator, cells []CellSpec) (chan []json.RawMessage, chan error) {
	resCh := make(chan []json.RawMessage, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := c.Execute(context.Background(), cells, nil)
		resCh <- res
		errCh <- err
	}()
	return resCh, errCh
}

// leaseAll polls until the worker has leased want cells (Execute
// enqueues asynchronously from the test's perspective).
func leaseAll(t *testing.T, c *Coordinator, workerID string, want int) []CellSpec {
	t.Helper()
	var got []CellSpec
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		if time.Now().After(deadline) {
			t.Fatalf("leased %d cells, want %d", len(got), want)
		}
		resp, err := c.Lease(LeaseRequest{WorkerID: workerID, Max: want - len(got)})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Cells...)
		if len(resp.Cells) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return got
}

func TestCoordinatorLeaseAndComplete(t *testing.T) {
	c, stats := testCoordinator(t, nil)
	w := register(t, c, "w")
	cells := fakeCells(3)
	resCh, errCh := execAsync(c, cells)

	for _, cell := range leaseAll(t, c, w, 3) {
		err := c.Complete(CompleteRequest{WorkerID: w, Key: cell.Key, Report: []byte("r:" + cell.Key)})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		if string(res[i]) != "r:"+cell.Key {
			t.Errorf("res[%d] = %q, want %q", i, res[i], "r:"+cell.Key)
		}
	}
	if n := stats.Get(metrics.SvcFleetLeased); n != 3 {
		t.Errorf("fleet_cells_leased = %d, want 3", n)
	}
	if n := stats.Get(metrics.SvcFleetCompleted); n != 3 {
		t.Errorf("fleet_cells_completed = %d, want 3", n)
	}
	st := c.Status()
	if len(st.Workers) != 1 || st.Workers[0].CellsDone != 3 {
		t.Errorf("status workers = %+v", st.Workers)
	}
}

// TestCoordinatorDedup pins fleet-wide dedup: the same key appearing
// twice in one Execute, and again in a concurrent Execute, is one
// task, one lease, one simulation. The cell completes only after both
// callers are attached to the shared task: each Execute leads with a
// key the disk store holds, and Execute reports that hit while it
// holds the coordinator's lock and registers its remaining cells
// before releasing it. Once both hits are in, the Lease and Complete
// below (which take the lock) come after both registrations.
func TestCoordinatorDedup(t *testing.T) {
	disk, err := jobs.NewDiskStore(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	disk.Put("stored", []byte("hit"))
	c, _ := testCoordinator(t, func(cfg *CoordinatorConfig) { cfg.Disk = disk })
	w := register(t, c, "w")
	stored, shared := CellSpec{Key: "stored"}, CellSpec{Key: "shared"}
	attached := make(chan struct{}, 2)
	execute := func(cells ...CellSpec) (chan []json.RawMessage, chan error) {
		resCh, errCh := make(chan []json.RawMessage, 1), make(chan error, 1)
		go func() {
			res, err := c.Execute(context.Background(), cells, func(i int, _ json.RawMessage) {
				if cells[i] == stored {
					attached <- struct{}{}
				}
			})
			resCh <- res
			errCh <- err
		}()
		return resCh, errCh
	}
	res1, err1 := execute(stored, shared, shared)
	res2, err2 := execute(stored, shared)
	<-attached
	<-attached

	cell := leaseAll(t, c, w, 1)[0]
	if cell.Key != "shared" {
		t.Fatalf("leased %q", cell.Key)
	}
	// No second task may exist: an extra lease comes back empty.
	if resp, _ := c.Lease(LeaseRequest{WorkerID: w, Max: 10}); len(resp.Cells) != 0 {
		t.Fatalf("duplicate key produced %d extra leases", len(resp.Cells))
	}
	if err := c.Complete(CompleteRequest{WorkerID: w, Key: "shared", Report: []byte("once")}); err != nil {
		t.Fatal(err)
	}
	r1, e1 := <-res1, <-err1
	r2, e2 := <-res2, <-err2
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	if string(r1[1]) != "once" || string(r1[2]) != "once" || string(r2[1]) != "once" {
		t.Errorf("deduped results = %q %q %q", r1[1], r1[2], r2[1])
	}
}

// TestCoordinatorRequeueOnExpiry pins dead-worker recovery: a worker
// that leases a cell and goes silent loses it at the lease deadline,
// and a live worker picks it up.
func TestCoordinatorRequeueOnExpiry(t *testing.T) {
	c, stats := testCoordinator(t, nil)
	dead := register(t, c, "dead")
	resCh, errCh := execAsync(c, fakeCells(1))
	got := leaseAll(t, c, dead, 1)
	// The dead worker never renews. After the TTL, a freshly registered
	// worker inherits the cell.
	live := register(t, c, "live")
	time.Sleep(250 * time.Millisecond)
	inherited := leaseAll(t, c, live, 1)
	if inherited[0].Key != got[0].Key {
		t.Fatalf("inherited %q, want %q", inherited[0].Key, got[0].Key)
	}
	if n := stats.Get(metrics.SvcFleetRequeued); n < 1 {
		t.Errorf("fleet_cells_requeued = %d, want >= 1", n)
	}
	if err := c.Complete(CompleteRequest{WorkerID: live, Key: inherited[0].Key, Report: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != "ok" {
		t.Fatalf("Execute = %q, %v", res, err)
	}
}

// TestCoordinatorIdempotentComplete pins restart tolerance: completing
// a cell twice (or completing a cell the coordinator never leased) is
// accepted. Only the active cell's result lands in the disk store: a
// completion for a key with no task is dropped, so no caller can write
// an arbitrary key into the shared results store.
func TestCoordinatorIdempotentComplete(t *testing.T) {
	disk, err := jobs.NewDiskStore(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := testCoordinator(t, func(cfg *CoordinatorConfig) { cfg.Disk = disk })
	w := register(t, c, "w")
	resCh, errCh := execAsync(c, fakeCells(1))
	cell := leaseAll(t, c, w, 1)[0]
	for i := 0; i < 2; i++ {
		if err := c.Complete(CompleteRequest{WorkerID: w, Key: cell.Key, Report: []byte("r")}); err != nil {
			t.Fatalf("complete #%d: %v", i+1, err)
		}
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != "r" {
		t.Fatalf("Execute = %q, %v", res, err)
	}
	if data, ok := disk.Get(cell.Key); !ok || string(data) != "r" {
		t.Errorf("completed cell not persisted: %q, %v", data, ok)
	}
	// A cell from a pre-restart lease: unknown key, accepted but not
	// stored.
	if err := c.Complete(CompleteRequest{WorkerID: w, Key: "never-leased", Report: []byte("orphan")}); err != nil {
		t.Fatal(err)
	}
	if data, ok := disk.Get("never-leased"); ok {
		t.Errorf("a completion for a key with no task was persisted: %q", data)
	}
}

// TestCoordinatorOnlyLeaseHolderCompletes pins who may complete a
// cell: a registered worker that does not hold the cell's lease
// completes it with forged bytes, then with an error, and neither
// stores, resolves or requeues anything; the holder's completion then
// resolves the waiting Execute with its own bytes, which the disk store
// keeps.
func TestCoordinatorOnlyLeaseHolderCompletes(t *testing.T) {
	disk, err := jobs.NewDiskStore(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := testCoordinator(t, func(cfg *CoordinatorConfig) {
		cfg.Disk = disk
		cfg.LeaseTTL = time.Minute // no lease may expire mid-test
	})
	holder, intruder := register(t, c, "holder"), register(t, c, "intruder")
	resCh, errCh := execAsync(c, fakeCells(1))
	cell := leaseAll(t, c, holder, 1)[0]
	for _, forged := range []CompleteRequest{
		{WorkerID: intruder, Key: cell.Key, Report: []byte(`{"forged":true}`)},
		{WorkerID: intruder, Key: cell.Key, Error: "forged failure"},
	} {
		if err := c.Complete(forged); err != nil {
			t.Fatalf("non-holder completion: %v, want it accepted and dropped", err)
		}
	}
	if data, ok := disk.Get(cell.Key); ok {
		t.Fatalf("a non-holder's completion was stored: %q", data)
	}
	if st := c.Status(); st.Pending != 0 || st.Leased != 1 {
		t.Fatalf("after the non-holder's completions: %d pending, %d leased; want the cell still leased", st.Pending, st.Leased)
	}
	if err := c.Complete(CompleteRequest{WorkerID: holder, Key: cell.Key, Report: []byte("holder")}); err != nil {
		t.Fatal(err)
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != "holder" {
		t.Fatalf("Execute = %q, %v; want the holder's bytes", res, err)
	}
	if data, ok := disk.Get(cell.Key); !ok || string(data) != "holder" {
		t.Errorf("disk store holds %q, %v; want the holder's bytes", data, ok)
	}
}

// TestCoordinatorMaxAttempts pins the poison-cell bound: a cell whose
// execution keeps failing is retried MaxAttempts times, then the
// waiting job gets the error instead of spinning forever.
func TestCoordinatorMaxAttempts(t *testing.T) {
	c, stats := testCoordinator(t, func(cfg *CoordinatorConfig) { cfg.MaxAttempts = 2 })
	w := register(t, c, "w")
	_, errCh := execAsync(c, fakeCells(1))
	for attempt := 0; attempt < 2; attempt++ {
		cell := leaseAll(t, c, w, 1)[0]
		if err := c.Complete(CompleteRequest{WorkerID: w, Key: cell.Key, Error: "boom"}); err != nil {
			t.Fatal(err)
		}
	}
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Execute error = %v", err)
	}
	if n := stats.Get(metrics.SvcFleetFailed); n != 1 {
		t.Errorf("fleet_cells_failed = %d, want 1", n)
	}
}

// TestCoordinatorDrain pins fleet drain: new Execute calls are
// refused, but cells already queued keep leasing out so in-flight jobs
// finish, and an idle worker is told to back off.
func TestCoordinatorDrain(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	w := register(t, c, "w")
	resCh, errCh := execAsync(c, fakeCells(1))
	cells := leaseAll(t, c, w, 1)

	c.Drain()
	if _, err := c.Execute(context.Background(), fakeCells(2), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Execute while draining = %v, want ErrDraining", err)
	}
	// The leased cell still completes and the pre-drain job finishes.
	if err := c.Complete(CompleteRequest{WorkerID: w, Key: cells[0].Key, Report: []byte("done")}); err != nil {
		t.Fatal(err)
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != "done" {
		t.Fatalf("Execute = %q, %v", res, err)
	}
	resp, err := c.Lease(LeaseRequest{WorkerID: w, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Draining || len(resp.Cells) != 0 {
		t.Errorf("post-drain lease = %+v, want draining and empty", resp)
	}
}

// TestCoordinatorOrphanFallback pins the no-workers degradation: with
// no live worker, Execute runs cells through cfg.Local and finishes.
func TestCoordinatorOrphanFallback(t *testing.T) {
	c, stats := testCoordinator(t, nil)
	cells := fakeCells(2)
	res, err := c.Execute(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		if string(res[i]) != "local:"+cell.Key {
			t.Errorf("res[%d] = %q", i, res[i])
		}
	}
	if n := stats.Get(metrics.SvcFleetLocal); n != 2 {
		t.Errorf("fleet_cells_local = %d, want 2", n)
	}
}

func TestCoordinatorRejectsBadVersionAndUnknownWorker(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	if _, err := c.Register(RegisterRequest{Version: ProtoVersion + 1}); err == nil {
		t.Error("version mismatch accepted")
	}
	if _, err := c.Lease(LeaseRequest{WorkerID: "nope"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("lease from unknown worker = %v", err)
	}
	if err := c.Renew(RenewRequest{WorkerID: "nope"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("renew from unknown worker = %v", err)
	}
	if err := c.Complete(CompleteRequest{WorkerID: "nope", Key: "k", Report: []byte("r")}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("complete from unknown worker = %v", err)
	}
}

// TestCoordinatorStaleWorkerRemoved pins registry hygiene: a worker
// silent for ~1.5 lease TTLs disappears from the registry and its
// cells requeue.
func TestCoordinatorStaleWorkerRemoved(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	register(t, c, "ghost")
	if n := c.LiveWorkers(); n != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", n)
	}
	time.Sleep(350 * time.Millisecond) // > 1.5 * 200ms TTL
	if n := c.LiveWorkers(); n != 0 {
		t.Errorf("LiveWorkers = %d after silence, want 0", n)
	}
}

// TestRunCellsKeysMatchCellKeys pins the content addresses the fleet
// dispatches on and its strict decode: every leased cell is keyed by
// the harness cell key for the reconstructed canonical config (so
// fleet results and the disk store address the same bytes, apart from
// any run job's document), reports come back aligned with the specs,
// and a payload with an unknown field fails the call.
func TestRunCellsKeysMatchCellKeys(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	w := register(t, c, "w")
	cfg := harness.QuickScaled()
	cfg.RefScale = 1.0 / 10000
	sh, err := harness.ShapeOf("table3", []uint64{200}, []uint64{1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	specs := sh.CellSpecs()
	index := make(map[string]int, len(specs))
	for k, spec := range specs {
		key := harness.CellKey(cfg, spec)
		if key == harness.RunKey(cfg, spec) {
			t.Fatalf("cell %d: cell key equals the run key", k)
		}
		if _, dup := index[key]; dup {
			t.Fatalf("duplicate key %s", key)
		}
		index[key] = k
	}

	serve := func(payload func(k int) string) ([]harness.ReportJSON, error) {
		type result struct {
			reports []harness.ReportJSON
			err     error
		}
		ch := make(chan result, 1)
		go func() {
			reports, err := c.RunCells(context.Background(), cfg, specs, nil)
			ch <- result{reports, err}
		}()
		for _, cell := range leaseAll(t, c, w, len(specs)) {
			k, ok := index[cell.Key]
			if !ok {
				t.Fatalf("leased key %s is not the cell key of any spec", cell.Key)
			}
			if cell.Spec != specs[k] {
				t.Errorf("cell %d spec = %+v, want %+v", k, cell.Spec, specs[k])
			}
			if want := harness.CellKey(cell.Config.Config(), cell.Spec); cell.Key != want {
				t.Errorf("cell %d key differs from the wire config's cell key", k)
			}
			if err := c.Complete(CompleteRequest{WorkerID: w, Key: cell.Key, Report: json.RawMessage(payload(k))}); err != nil {
				t.Fatal(err)
			}
		}
		r := <-ch
		return r.reports, r.err
	}

	reports, err := serve(func(k int) string { return fmt.Sprintf(`{"name":%q}`, specs[k].System) })
	if err != nil {
		t.Fatal(err)
	}
	for k, spec := range specs {
		if reports[k].Name != spec.System.String() {
			t.Errorf("report %d = %q, want %q", k, reports[k].Name, spec.System)
		}
	}
	_, err = serve(func(int) string { return `{"name":"x","bogus":1}` })
	if err == nil || !strings.Contains(err.Error(), "malformed report") {
		t.Errorf("unknown payload field: err = %v, want a malformed-report error", err)
	}
}
