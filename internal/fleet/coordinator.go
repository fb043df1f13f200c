package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rampage/internal/cas"
	"rampage/internal/metrics"
)

// CoordinatorConfig sizes the coordinator.
type CoordinatorConfig struct {
	// LeaseTTL bounds how long a worker may hold a cell without
	// renewing before it is requeued (default 15s). Workers renew at
	// TTL/3, so a dead worker's cells reappear within one TTL.
	LeaseTTL time.Duration
	// PollInterval is the idle poll cadence suggested to workers
	// (default 500ms).
	PollInterval time.Duration
	// MaxAttempts bounds how many times a cell is dispatched before
	// its error is surfaced (default 3). Requeues after worker death
	// count as attempts, so a cell that crashes every worker cannot
	// cycle forever.
	MaxAttempts int
	// Disk, when non-nil, is the results disk tier (jobs.NewDiskStore)
	// that persists completed cell results content-addressed by their
	// cell key (harness.CellKey): cells shared between experiments (or
	// re-run after a restart) are answered from disk instead of
	// re-simulated — fleet-wide dedup.
	Disk *cas.Store
	// Local runs one orphaned cell in process and returns its
	// ReportJSON bytes. The coordinator calls it when cells are queued
	// but no live worker remains (all died mid-sweep), so a fleet
	// degrades to a single machine instead of hanging. The server runs
	// the cell through RunLocal, as a worker would; tests substitute
	// their own. Required.
	Local func(ctx context.Context, cell CellSpec) ([]byte, error)
	// Stats receives fleet counters; may be nil.
	Stats *metrics.ServiceStats
}

// Coordinator owns the cell queue, worker registry and leases. All
// methods are safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig

	mu         sync.Mutex
	draining   bool
	nextWorker uint64
	workers    map[string]*workerState
	tasks      map[string]*task // key -> unfinished task
	pending    []*task          // unleased tasks, FIFO
}

// workerState is the registry row for one worker.
type workerState struct {
	id          string
	name        string
	parallel    int
	lastSeen    time.Time
	inflight    map[string]*task
	cellsDone   uint64
	cellsFailed uint64
	counters    map[string]uint64 // last piggybacked snapshot
}

// task is one cell wanted by at least one in-flight job. Tasks are
// deduplicated by key: concurrent experiments sharing a cell wait on
// the same task.
type task struct {
	cell     CellSpec
	attempts int
	leasedBy string    // worker ID, "local", or "" when pending
	deadline time.Time // lease expiry; zero when pending

	done   chan struct{} // closed on completion
	result []byte        // ReportJSON bytes; nil on err
	err    error
}

// NewCoordinator builds a coordinator. Local must be set.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.Local == nil {
		panic("fleet: CoordinatorConfig.Local is required")
	}
	return &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		tasks:   make(map[string]*task),
	}
}

// Register admits a worker and assigns its ID. A version mismatch is
// rejected — a worker built against another report schema would
// contribute incompatible bytes.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Version != ProtoVersion {
		return RegisterResponse{}, fmt.Errorf("fleet: protocol version %d, coordinator wants %d", req.Version, ProtoVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("w%04d", c.nextWorker),
		name:     req.Name,
		parallel: req.Parallel,
		lastSeen: time.Now(),
		inflight: make(map[string]*task),
	}
	c.workers[w.id] = w
	return RegisterResponse{
		WorkerID:   w.id,
		LeaseTTLMs: c.cfg.LeaseTTL.Milliseconds(),
		PollMs:     c.cfg.PollInterval.Milliseconds(),
	}, nil
}

// Deregister removes a worker, requeueing anything it still holds.
func (c *Coordinator) Deregister(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[workerID]; ok {
		c.removeWorkerLocked(w)
	}
}

// Lease hands out up to req.Max pending cells and marks the worker
// seen. During drain no new cells are queued service-wide, so the
// pending tasks a draining coordinator still leases all belong to
// in-flight jobs — handing them out is how the fleet finishes them.
// Draining is reported once the queue is empty so idle workers can
// back off.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return LeaseResponse{}, ErrUnknownWorker
	}
	now := time.Now()
	w.lastSeen = now
	if req.Counters != nil {
		w.counters = req.Counters
	}
	c.reapLocked(now)
	resp := LeaseResponse{PollMs: c.cfg.PollInterval.Milliseconds()}
	max := req.Max
	if max < 1 {
		max = 1
	}
	for len(resp.Cells) < max && len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		t.leasedBy = w.id
		t.deadline = now.Add(c.cfg.LeaseTTL)
		t.attempts++
		w.inflight[t.cell.Key] = t
		resp.Cells = append(resp.Cells, t.cell)
	}
	c.cfg.Stats.Add(metrics.SvcFleetLeased, uint64(len(resp.Cells)))
	resp.Draining = c.draining && len(c.pending) == 0
	return resp, nil
}

// Renew extends the worker's leases on the named cells.
func (c *Coordinator) Renew(req RenewRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return ErrUnknownWorker
	}
	now := time.Now()
	w.lastSeen = now
	for _, key := range req.Keys {
		if t, ok := w.inflight[key]; ok {
			t.deadline = now.Add(c.cfg.LeaseTTL)
		}
	}
	return nil
}

// Complete records one finished cell. Only the worker holding the
// cell's lease can complete it: its result is persisted to the disk
// store (when one is attached) and resolves the task, and its error
// requeues the cell or, after MaxAttempts, fails it. A completion from
// any other worker, or for a key with no active task, is accepted and
// dropped: it stores nothing, resolves nothing and requeues nothing,
// so no caller can replace a result a job is waiting on or write a key
// the coordinator is not waiting on into the shared results store.
// After a coordinator restart a worker may stream back cells the new
// coordinator never leased; those cells are simulated again if a job
// asks for them. Unknown workers get ErrUnknownWorker so they
// re-register; they hold no lease, since a worker's leases are
// requeued when it is removed.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, known := c.workers[req.WorkerID]
	if !known {
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	t, active := c.tasks[req.Key]
	if !active || t.leasedBy != w.id {
		return nil
	}
	delete(w.inflight, req.Key)
	if req.Error != "" {
		w.cellsFailed++
		if t.attempts >= c.cfg.MaxAttempts {
			c.cfg.Stats.Add(metrics.SvcFleetFailed, 1)
			c.finishLocked(t, nil, fmt.Errorf("fleet: cell %s (%s @ %d MHz / %d B) failed after %d attempts: %s",
				shortKey(t.cell.Key), t.cell.Spec.System, t.cell.Spec.IssueMHz, t.cell.Spec.SizeBytes, t.attempts, req.Error))
		} else {
			c.requeueLocked(t)
		}
		return nil
	}
	if len(req.Report) > 0 {
		c.cfg.Disk.Put(req.Key, req.Report)
	}
	w.cellsDone++
	c.cfg.Stats.Add(metrics.SvcFleetCompleted, 1)
	c.finishLocked(t, req.Report, nil)
	return nil
}

// finishLocked resolves a task and removes it from the index. Caller
// holds the lock.
func (c *Coordinator) finishLocked(t *task, result []byte, err error) {
	t.result, t.err = result, err
	t.leasedBy = ""
	delete(c.tasks, t.cell.Key)
	close(t.done)
}

// requeueLocked puts a leased task back at the head of the queue.
// Caller holds the lock.
func (c *Coordinator) requeueLocked(t *task) {
	t.leasedBy = ""
	t.deadline = time.Time{}
	c.pending = append([]*task{t}, c.pending...)
	c.cfg.Stats.Add(metrics.SvcFleetRequeued, 1)
}

// staleAfter is how long a worker may be silent before it is presumed
// dead. Idle workers poll every PollInterval and busy ones renew at
// TTL/3, so anything quieter than a full TTL plus slack is gone.
func (c *Coordinator) staleAfter() time.Duration {
	return c.cfg.LeaseTTL + c.cfg.LeaseTTL/2
}

// reapLocked requeues expired leases and drops silent workers. Caller
// holds the lock.
func (c *Coordinator) reapLocked(now time.Time) {
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) > c.staleAfter() {
			c.removeWorkerLocked(w)
			continue
		}
		for key, t := range w.inflight {
			if now.After(t.deadline) {
				delete(w.inflight, key)
				c.requeueLocked(t)
			}
		}
	}
}

// removeWorkerLocked drops a worker and requeues its leases. Caller
// holds the lock.
func (c *Coordinator) removeWorkerLocked(w *workerState) {
	for _, t := range w.inflight {
		c.requeueLocked(t)
	}
	delete(c.workers, w.id)
}

// LiveWorkers reports how many workers are currently registered and
// not stale. The answer is advisory — a worker can die right after —
// which is why Execute has the local fallback.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(time.Now())
	return len(c.workers)
}

// Drain stops admitting new work: Execute refuses, and once the
// pending queue empties lease responses tell workers to back off.
// Cells already queued or leased — all owned by in-flight jobs — keep
// flowing to workers so those jobs can finish.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
}

// Draining reports whether Drain was called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Status snapshots the fleet for /metricsz and /fleet/v1/workers,
// including the summed per-worker counter rollup.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(time.Now())
	st := Status{Draining: c.draining, Pending: len(c.pending)}
	var snaps []map[string]uint64
	for _, w := range c.workers {
		st.Leased += len(w.inflight)
		st.Workers = append(st.Workers, WorkerStatus{
			ID:          w.id,
			Name:        w.name,
			Parallel:    w.parallel,
			Inflight:    len(w.inflight),
			CellsDone:   w.cellsDone,
			CellsFailed: w.cellsFailed,
			LastSeenMs:  time.Since(w.lastSeen).Milliseconds(),
			Counters:    w.counters,
		})
		if w.counters != nil {
			snaps = append(snaps, w.counters)
		}
	}
	sortWorkers(st.Workers)
	if len(snaps) > 0 {
		st.Rollup = metrics.SumSnapshots(snaps...)
	}
	return st
}

// Execute resolves a set of cells: disk hits answer immediately,
// duplicates collapse onto in-flight tasks, and the rest are queued
// for workers to lease. It blocks until every cell has a result,
// calling progress once per resolved cell with the cell's index and
// its ReportJSON payload (so callers can stream partial results in
// arrival order), and returns the payloads aligned with cells. If
// live workers disappear while cells are still pending, the
// coordinator executes the stragglers itself so the job finishes
// regardless.
func (c *Coordinator) Execute(ctx context.Context, cells []CellSpec, progress func(i int, report json.RawMessage)) ([]json.RawMessage, error) {
	if progress == nil {
		progress = func(int, json.RawMessage) {}
	}
	results := make([]json.RawMessage, len(cells))
	type wait struct {
		t   *task
		idx []int
	}
	waitByKey := make(map[string]*wait)
	var waits []*wait

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, ErrDraining
	}
	for i, cell := range cells {
		if w, ok := waitByKey[cell.Key]; ok {
			w.idx = append(w.idx, i)
			continue
		}
		if data, ok := c.cfg.Disk.Get(cell.Key); ok {
			results[i] = data
			progress(i, data)
			continue
		}
		t, ok := c.tasks[cell.Key]
		if !ok {
			t = &task{cell: cell, done: make(chan struct{})}
			c.tasks[cell.Key] = t
			c.pending = append(c.pending, t)
		}
		w := &wait{t: t, idx: []int{i}}
		waitByKey[cell.Key] = w
		waits = append(waits, w)
	}
	c.mu.Unlock()

	// Collect: poll the outstanding tasks, reaping dead workers as we
	// go; when the fleet is empty, pull orphaned cells off the queue
	// and run them locally.
	tick := time.NewTicker(c.cfg.PollInterval / 2)
	defer tick.Stop()
	outstanding := waits
	for len(outstanding) > 0 {
		var still []*wait
		for _, w := range outstanding {
			select {
			case <-w.t.done:
				if w.t.err != nil {
					return nil, w.t.err
				}
				for _, i := range w.idx {
					results[i] = w.t.result
					progress(i, w.t.result)
				}
			default:
				still = append(still, w)
			}
		}
		outstanding = still
		if len(outstanding) == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
		c.runOrphansLocally(ctx)
	}
	return results, nil
}

// runOrphansLocally executes pending cells in-process while no live
// worker exists. One cell per call keeps the check cheap and lets a
// rejoining worker take over the remainder of the queue.
func (c *Coordinator) runOrphansLocally(ctx context.Context) {
	c.mu.Lock()
	c.reapLocked(time.Now())
	if len(c.workers) > 0 || len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	t := c.pending[0]
	c.pending = c.pending[1:]
	t.leasedBy = "local"
	t.attempts++
	c.mu.Unlock()

	data, err := c.cfg.Local(ctx, t.cell)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if ctx.Err() != nil {
			// Canceled, not failed: hand the cell back for whoever
			// still wants it.
			c.requeueLocked(t)
			return
		}
		c.cfg.Stats.Add(metrics.SvcFleetFailed, 1)
		c.finishLocked(t, nil, err)
		return
	}
	c.cfg.Disk.Put(t.cell.Key, data)
	c.cfg.Stats.Add(metrics.SvcFleetLocal, 1)
	c.cfg.Stats.Add(metrics.SvcFleetCompleted, 1)
	c.finishLocked(t, data, nil)
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func sortWorkers(ws []WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].ID < ws[j-1].ID; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}
