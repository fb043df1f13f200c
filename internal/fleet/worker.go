package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rampage/internal/cas"
	"rampage/internal/checkpoint"
	"rampage/internal/metrics"
)

// WorkerConfig configures one worker process (or in-process worker).
type WorkerConfig struct {
	// CoordinatorURL is the coordinator's base URL, e.g.
	// "http://host:8080". Required.
	CoordinatorURL string
	// Name labels the worker in the coordinator's status document.
	Name string
	// Parallel is how many cells of a leased batch run concurrently
	// (default 1): the batch runs through RunLocal, a harness.RunCells
	// call per configuration with Parallel pool goroutines. It is also
	// the lease batch size, so a worker never hoards cells it cannot
	// start.
	Parallel int
	// Checkpoints, when non-nil, is the worker's local warm-state
	// store; RunLocal runs each batch warmest-first against it.
	Checkpoints *checkpoint.Store
	// Disk, when non-nil, is the worker's local results disk tier
	// (jobs.NewDiskStore). Leased cells are answered from it without
	// re-simulating (cell keys are harness.CellKey hashes, so a stored
	// record is the cell's exact bytes), and freshly simulated cells
	// are written back so a re-lease after coordinator restart or
	// requeue costs one disk read instead of a simulation.
	Disk *cas.Store
	// Stats receives local counters (sim runs, checkpoint hits); its
	// snapshot piggybacks on lease requests for the coordinator's
	// per-worker rollup. May be nil.
	Stats *metrics.ServiceStats
	// Client is the HTTP client (default: 30s timeout).
	Client *http.Client
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Worker pulls cells from a coordinator, executes them locally and
// streams results back. Create with NewWorker, drive with Run.
type Worker struct {
	cfg      WorkerConfig
	client   *http.Client
	logf     func(string, ...any)
	leaseTTL time.Duration
	poll     time.Duration
	id       string

	drain chan struct{} // closed by Drain
	once  sync.Once

	simulated atomic.Uint64 // cells actually simulated (memo misses)
}

// Simulated returns how many leased cells this worker actually
// simulated; cells answered from its local result store don't count.
func (w *Worker) Simulated() uint64 { return w.simulated.Load() }

// NewWorker validates cfg and returns a worker ready to Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.CoordinatorURL == "" {
		return nil, errors.New("fleet: worker needs a coordinator URL")
	}
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	w := &Worker{
		cfg:    cfg,
		client: cfg.Client,
		logf:   cfg.Logf,
		drain:  make(chan struct{}),
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	return w, nil
}

// Drain asks Run to finish in-flight cells, deregister and return.
// Safe to call more than once and from any goroutine.
func (w *Worker) Drain() {
	w.once.Do(func() { close(w.drain) })
}

// Run is the worker loop: register (retrying until the coordinator is
// reachable), then lease → execute (executeBatch) → complete, renewing
// leases at TTL/3 while cells execute. It returns when Drain is called
// (after finishing in-flight cells and deregistering), when the
// coordinator reports it is draining with no work left, or when ctx is
// canceled — a hard stop that abandons leases for the coordinator to
// requeue.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.logf("worker %s registered with %s (parallel=%d)", w.id, w.cfg.CoordinatorURL, w.cfg.Parallel)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.drain:
			w.deregister()
			return nil
		default:
		}
		lease, err := w.lease(ctx)
		if err != nil {
			if errors.Is(err, ErrUnknownWorker) {
				// Coordinator restarted: our registration is gone.
				w.logf("worker %s unknown to coordinator, re-registering", w.id)
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Coordinator unreachable: back off and retry.
			w.logf("lease failed (%v), retrying", err)
			if !w.sleep(ctx, w.poll) {
				return ctx.Err()
			}
			continue
		}
		if len(lease.Cells) == 0 {
			if lease.Draining {
				w.logf("worker %s: coordinator draining and idle, exiting", w.id)
				w.deregister()
				return nil
			}
			if !w.sleep(ctx, w.poll) {
				return ctx.Err()
			}
			continue
		}
		w.executeBatch(ctx, lease.Cells)
	}
}

// executeBatch runs a leased batch: cells the local result store
// holds complete first, and the rest run through RunLocal, with each
// simulated cell written back to that store. A renewer keeps the
// batch's leases alive meanwhile; renewing a finished cell is a no-op,
// since the coordinator only extends leases the worker still holds.
func (w *Worker) executeBatch(ctx context.Context, cells []CellSpec) {
	keys := make([]string, len(cells))
	for i, cell := range cells {
		keys[i] = cell.Key
	}
	renewCtx, stopRenew := context.WithCancel(ctx)
	renewed := make(chan struct{})
	go func() {
		defer close(renewed)
		interval := w.leaseTTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-tick.C:
				w.renew(renewCtx, keys)
			}
		}
	}()
	defer func() {
		stopRenew()
		<-renewed
	}()

	finish := func(key string, report []byte, err error) {
		if ctx.Err() != nil {
			return // hard stop; lease expiry requeues the cell
		}
		req := CompleteRequest{Key: key, Report: report}
		if err != nil {
			w.logf("cell %s failed: %v", shortKey(key), err)
			req.Error = err.Error()
		}
		w.complete(ctx, req)
	}
	var run []CellSpec
	for _, cell := range cells {
		if data, ok := w.cfg.Disk.Get(cell.Key); ok {
			w.logf("cell %s served from local store", shortKey(cell.Key))
			finish(cell.Key, data, nil)
			continue
		}
		run = append(run, cell)
	}
	// A hard stop returns ctx.Err(), which Run's loop sees next.
	RunLocal(ctx, run, w.cfg.Checkpoints, w.cfg.Parallel, func(i int, report []byte, err error) {
		if err == nil {
			w.simulated.Add(1)
			w.cfg.Stats.Add(metrics.SvcSimRuns, 1)
			w.cfg.Disk.Put(run[i].Key, report)
		}
		finish(run[i].Key, report, err)
	})
}

// register keeps trying until the coordinator answers or ctx ends.
func (w *Worker) register(ctx context.Context) error {
	req := RegisterRequest{Version: ProtoVersion, Name: w.cfg.Name, Parallel: w.cfg.Parallel}
	backoff := 200 * time.Millisecond
	for {
		var resp RegisterResponse
		err := w.post(ctx, "/fleet/v1/register", req, &resp)
		if err == nil {
			w.id = resp.WorkerID
			w.leaseTTL = time.Duration(resp.LeaseTTLMs) * time.Millisecond
			w.poll = time.Duration(resp.PollMs) * time.Millisecond
			if w.poll <= 0 {
				w.poll = 500 * time.Millisecond
			}
			return nil
		}
		// A version-mismatch rejection is permanent; retrying would
		// spin forever against a coordinator that will never accept us.
		var he *httpError
		if errors.As(err, &he) && he.code == http.StatusConflict {
			return fmt.Errorf("fleet: register rejected: %w", err)
		}
		w.logf("register failed (%v), retrying in %v", err, backoff)
		if !w.sleep(ctx, backoff) {
			return ctx.Err()
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

func (w *Worker) lease(ctx context.Context) (LeaseResponse, error) {
	req := LeaseRequest{WorkerID: w.id, Max: w.cfg.Parallel, Counters: w.cfg.Stats.Snapshot()}
	var resp LeaseResponse
	err := w.post(ctx, "/fleet/v1/lease", req, &resp)
	return resp, err
}

func (w *Worker) renew(ctx context.Context, keys []string) {
	w.post(ctx, "/fleet/v1/renew", RenewRequest{WorkerID: w.id, Keys: keys}, &struct{}{})
}

// complete retries with backoff: a result the worker spent real
// simulation time on should survive a transient coordinator blip
// (e.g. a restart). Unknown-worker answers re-register and resend —
// the coordinator accepts results from any registered worker.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) {
	backoff := 200 * time.Millisecond
	for attempt := 0; attempt < 6; attempt++ {
		req.WorkerID = w.id
		err := w.post(ctx, "/fleet/v1/complete", req, &struct{}{})
		if err == nil {
			return
		}
		if errors.Is(err, ErrUnknownWorker) {
			if w.register(ctx) != nil {
				return
			}
			continue
		}
		if ctx.Err() != nil {
			return
		}
		w.logf("complete %s failed (%v), retrying in %v", shortKey(req.Key), err, backoff)
		if !w.sleep(ctx, backoff) {
			return
		}
		backoff *= 2
	}
	w.logf("complete %s abandoned; lease expiry will requeue it", shortKey(req.Key))
}

func (w *Worker) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.post(ctx, "/fleet/v1/deregister", map[string]string{"worker_id": w.id}, &struct{}{})
}

// sleep waits d or until ctx/drain fires; false means stop sleeping
// because ctx ended.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-w.drain:
		return true
	case <-t.C:
		return true
	}
}

// httpError carries the coordinator's status code and error body.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return fmt.Sprintf("coordinator: %d: %s", e.code, e.msg) }

// Unwrap maps 404 onto ErrUnknownWorker so callers can errors.Is it.
func (e *httpError) Unwrap() error {
	if e.code == http.StatusNotFound {
		return ErrUnknownWorker
	}
	return nil
}

func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.CoordinatorURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		json.Unmarshal(raw, &eb)
		return &httpError{code: resp.StatusCode, msg: eb.Error}
	}
	return json.Unmarshal(raw, out)
}
