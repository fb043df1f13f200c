// Package jobs runs experiment requests on a bounded worker pool in
// front of a content-addressed result cache. It is the concurrency
// core of the experiment service and knows nothing about HTTP or the
// simulator: a Request carries a canonical cache key, a progress cell
// count, and a closure producing the serialized result document. The
// manager provides the serving guarantees the simulator's determinism
// makes possible — identical requests collapse onto one in-flight
// computation (singleflight), finished results are served from the
// cache without re-simulating, a full queue rejects instead of
// blocking (backpressure), and a drain lets in-flight work finish
// while refusing new work. Multi-tenant serving adds two more: a
// weighted round-robin queue that keeps one tenant's flood from
// starving another, and per-tenant token buckets that bound each
// tenant's admission rate. Every job also carries an EventStream of
// its completed cells so the HTTP layer can stream partial results
// live, with resume-from-sequence.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rampage/internal/cas"
	"rampage/internal/metrics"
)

// Submission errors. The HTTP layer maps ErrQueueFull to 429 with a
// Retry-After hint and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: manager is draining")
)

// Request describes one unit of work.
type Request struct {
	// Key is the content address of the result (harness.RunKey or
	// harness.ExperimentKey): requests with equal keys are guaranteed
	// to produce byte-identical documents, which is what licenses both
	// the cache and the singleflight collapse.
	Key string
	// Label names the request for status documents ("experiment:table3").
	Label string
	// Cells is the total progress denominator (grid cells for a sweep,
	// 1 for a single run).
	Cells int
	// Tenant attributes the request to a client for fair queueing, rate
	// limiting and per-tenant counters ("" is the shared anonymous
	// tenant). Cache hits and singleflight joins are free — only
	// submissions that would enqueue real work spend a token.
	Tenant string
	// Do computes the serialized result document. It must honour ctx
	// and call progress after each completed cell (progress is safe for
	// concurrent use and may be called from worker goroutines). A
	// non-nil cell payload is published to the job's event stream for
	// live subscribers; nil records count-only progress.
	Do func(ctx context.Context, progress func(cell []byte)) ([]byte, error)
	// Replay re-derives, from a finished document, the cell payloads Do
	// publishes while producing it, in order. A job answered from the
	// result cache publishes them (nil entries skipped, as with
	// progress) ahead of its terminal event, so a streaming client sees
	// the same cell events for a hit as for a live run. Nil leaves a
	// hit with its terminal event only.
	Replay func(doc []byte) ([][]byte, error)
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one tracked computation. Identical concurrent submissions
// share a single Job.
type Job struct {
	ID     string
	Key    string
	Label  string
	Cells  int
	Tenant string

	cellsDone atomic.Uint64
	events    *EventStream

	// cached marks a job answered from the result cache; its events are
	// replayed from the document by replay on first use.
	cached     bool
	replay     func(doc []byte) ([][]byte, error)
	replayOnce sync.Once

	run    func(ctx context.Context, progress func(cell []byte)) ([]byte, error)
	jobCtx context.Context    // canceled by Cancel or manager shutdown
	cancel context.CancelFunc // cancels jobCtx

	mu    sync.Mutex
	state State
	err   error
	data  []byte

	done chan struct{} // closed on entering a terminal state
}

// Status is the poll-friendly snapshot of a job, serialized by the
// HTTP layer for GET /v1/jobs/{id}.
type Status struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	Label     string `json:"label"`
	State     State  `json:"state"`
	Cells     int    `json:"cells"`
	CellsDone uint64 `json:"cells_done"`
	Error     string `json:"error,omitempty"`
}

// Status returns the job's current snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:        j.ID,
		Key:       j.Key,
		Label:     j.Label,
		State:     j.state,
		Cells:     j.Cells,
		CellsDone: j.cellsDone.Load(),
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Result returns the job's document once terminal; calling it before
// the done channel closes returns an error.
func (j *Job) Result() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.Terminal():
		return nil, fmt.Errorf("jobs: job %s still %s", j.ID, j.state)
	case j.err != nil:
		return nil, j.err
	default:
		return j.data, nil
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) finish(state State, data []byte, err error) {
	j.mu.Lock()
	j.state = state
	j.data = data
	j.err = err
	j.mu.Unlock()
	close(j.done)
	var errText string
	if err != nil {
		errText = err.Error()
	}
	j.events.publish(string(state), nil, errText)
}

// Config sizes a Manager.
type Config struct {
	// Workers is the number of concurrent jobs (min 1). Note each sweep
	// job additionally parallelizes across grid cells internally, so
	// this bounds admitted jobs, not goroutines.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (min 1);
	// submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// JobTimeout bounds one job's execution (0 = unlimited).
	JobTimeout time.Duration
	// CacheBytes is the result cache budget (<= 0 = unlimited).
	CacheBytes int64
	// Disk, when non-nil, is the results disk tier (NewDiskStore)
	// under the in-memory cache: lookups that miss memory are answered
	// from disk (and promoted), finished results are written through.
	// Results therefore survive restarts and are shared fleet-wide.
	Disk *cas.Store
	// KeepFinished bounds how many terminal jobs stay pollable (min 1;
	// default 512). Older finished jobs are forgotten FIFO.
	KeepFinished int
	// TenantRate, when positive, applies a per-tenant token bucket to
	// submissions that would enqueue real work: TenantRate jobs per
	// second accrue up to TenantBurst tokens (min 1). An empty bucket
	// rejects with a *RateLimitError carrying the refill time.
	TenantRate  float64
	TenantBurst int
	// TenantWeights sets per-tenant fair-queue weights (entries absent
	// or < 1 mean 1): a tenant with weight w may dequeue up to w jobs
	// per round-robin visit. Dequeue is starvation-free regardless.
	TenantWeights map[string]int
	// Stats receives service counters; may be nil.
	Stats *metrics.ServiceStats
	// Tenants receives per-tenant counters; may be nil.
	Tenants *metrics.TenantStats
}

// NewDiskStore opens the results namespace of a disk store rooted at
// dir (see internal/cas): one sha256(key).res record per document,
// held to budgetBytes (<= 0 = unlimited). It counts disk_hits,
// disk_stores and disk_evictions on stats, which may be nil.
func NewDiskStore(dir string, budgetBytes int64, stats *metrics.ServiceStats) (*cas.Store, error) {
	return cas.Open(dir, ".res", budgetBytes, cas.Counters{
		Hit:   stats.Counter(metrics.SvcDiskHit),
		Store: stats.Counter(metrics.SvcDiskStore),
		Evict: stats.Counter(metrics.SvcDiskEvict),
	})
}

// newResultCache returns the in-memory results tier over disk (which
// may be nil), counting cache_hits and cache_evictions on stats.
func newResultCache(budgetBytes int64, disk *cas.Store, stats *metrics.ServiceStats) *cas.Store {
	return cas.NewMemory(budgetBytes, disk, cas.Counters{
		Hit:   stats.Counter(metrics.SvcCacheHit),
		Evict: stats.Counter(metrics.SvcCacheEvict),
	})
}

// Manager owns the queue, the worker pool, the singleflight index and
// the result cache.
type Manager struct {
	cfg     Config
	cache   *cas.Store // memory over the disk tier, when one is attached
	stats   *metrics.ServiceStats
	tenants *metrics.TenantStats
	limiter *rateLimiter // nil when no tenant rate is configured

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	queue    *fairQueue
	inflight map[string]*Job // cache key -> non-terminal job
	jobs     map[string]*Job // job ID -> job (bounded by KeepFinished)
	finished []string        // terminal job IDs, oldest first
	nextID   uint64

	wg sync.WaitGroup
}

// NewManager starts the worker pool.
func NewManager(cfg Config) *Manager {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.KeepFinished < 1 {
		cfg.KeepFinished = 512
	}
	ctx, cancel := context.WithCancel(context.Background())
	var weight func(string) int
	if len(cfg.TenantWeights) > 0 {
		weights := cfg.TenantWeights
		weight = func(tenant string) int { return weights[tenant] }
	}
	m := &Manager{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheBytes, cfg.Disk, cfg.Stats),
		stats:      cfg.Stats,
		tenants:    cfg.Tenants,
		limiter:    newRateLimiter(cfg.TenantRate, cfg.TenantBurst),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      newFairQueue(cfg.QueueDepth, weight),
		inflight:   make(map[string]*Job),
		jobs:       make(map[string]*Job),
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Cache exposes the in-memory result tier (the HTTP layer reports its
// size).
func (m *Manager) Cache() *cas.Store { return m.cache }

// Lookup serves a result straight from the cache — the in-memory LRU
// first, then the persistent disk store when one is attached. It does
// not create a job; misses are uncounted (the caller follows up with
// Submit, which does the miss accounting).
func (m *Manager) Lookup(key string) ([]byte, bool) { return m.cache.Get(key) }

// Submit admits a request. The returned job may already be terminal
// (cache hit), may be shared with earlier identical submissions
// (singleflight), or may be freshly queued. ErrQueueFull and
// ErrDraining reject without a job.
func (m *Manager) Submit(req Request) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	// Cache check (memory, then disk) under the manager lock so a
	// result installed between check and enqueue cannot be missed.
	if data, ok := m.cache.Get(req.Key); ok {
		j := m.newJobLocked(req)
		j.cellsDone.Store(uint64(req.Cells))
		j.state = StateDone
		j.data = data
		j.cached, j.replay = true, req.Replay
		close(j.done)
		j.cancel() // release the context before the job is ever run
		m.rememberFinishedLocked(j)
		m.tenants.Add(req.Tenant, metrics.TenantDone, 1)
		return j, nil
	}
	if j, ok := m.inflight[req.Key]; ok {
		m.stats.Add(metrics.SvcCacheDedup, 1)
		return j, nil
	}
	// Real work from here on: charge the tenant's token bucket before
	// allocating anything.
	if m.limiter != nil {
		if wait, ok := m.limiter.take(req.Tenant); !ok {
			m.stats.Add(metrics.SvcRateLimited, 1)
			m.tenants.Add(req.Tenant, metrics.TenantRateLimited, 1)
			return nil, &RateLimitError{Tenant: req.Tenant, RetryAfter: wait}
		}
	}
	j := m.newJobLocked(req)
	if !m.queue.push(j) {
		delete(m.jobs, j.ID)
		j.cancel()
		if m.limiter != nil {
			m.limiter.refund(req.Tenant) // the tenant shouldn't pay for our full queue
		}
		m.stats.Add(metrics.SvcJobsRejected, 1)
		m.tenants.Add(req.Tenant, metrics.TenantRejected, 1)
		return nil, ErrQueueFull
	}
	m.inflight[req.Key] = j
	m.stats.Add(metrics.SvcCacheMiss, 1)
	m.stats.Add(metrics.SvcJobsAccepted, 1)
	m.tenants.Add(req.Tenant, metrics.TenantAccepted, 1)
	return j, nil
}

// newJobLocked allocates and registers a job; m.mu must be held.
func (m *Manager) newJobLocked(req Request) *Job {
	m.nextID++
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		ID:     fmt.Sprintf("j%06d", m.nextID),
		Key:    req.Key,
		Label:  req.Label,
		Cells:  req.Cells,
		Tenant: req.Tenant,
		events: newEventStream(),
		cancel: cancel,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	j.run = req.Do
	j.jobCtx = ctx
	m.jobs[j.ID] = j
	return j
}

// rememberFinishedLocked records a terminal job for polling and
// forgets the oldest beyond the retention bound; m.mu must be held.
func (m *Manager) rememberFinishedLocked(j *Job) {
	m.finished = append(m.finished, j.ID)
	for len(m.finished) > m.cfg.KeepFinished {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// Get returns a tracked job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a queued or running job. It returns
// false if the job is unknown or already terminal. The job reaches
// StateCanceled asynchronously (a running simulation stops at its next
// cancellation check).
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		return false
	}
	j.cancel()
	return true
}

// Wait blocks until the job is terminal or ctx expires, returning the
// result document. A ctx expiry abandons the wait, not the job.
func (m *Manager) Wait(ctx context.Context, j *Job) ([]byte, error) {
	select {
	case <-j.Done():
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// QueueDepth reports capacity and current length, for Retry-After
// estimates and /healthz documents.
func (m *Manager) QueueDepth() (length, capacity int) {
	return m.queue.len(), m.cfg.QueueDepth
}

// Drain stops admissions, lets queued and running jobs finish, and
// returns when the pool is idle. If ctx expires first, remaining jobs
// are canceled and ctx.Err() is returned after the workers exit.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.queue.close() // queued jobs stay poppable; workers drain them
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		m.baseCancel() // hard-cancel in-flight jobs
		<-idle
		return ctx.Err()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.queue.pop()
		if !ok {
			return
		}
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *Job) {
	defer j.cancel()
	finish := func(state State, data []byte, err error) {
		m.mu.Lock()
		delete(m.inflight, j.Key)
		j.finish(state, data, err)
		m.rememberFinishedLocked(j)
		m.mu.Unlock()
	}
	ctx := j.jobCtx
	if err := ctx.Err(); err != nil {
		// Canceled while still queued.
		m.stats.Add(metrics.SvcJobsCanceled, 1)
		finish(StateCanceled, nil, context.Canceled)
		return
	}
	if m.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
		defer cancel()
	}
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	m.stats.Add(metrics.SvcSimRuns, 1)
	data, err := j.run(ctx, func(cell []byte) {
		j.cellsDone.Add(1)
		if cell != nil {
			j.events.publish("cell", cell, "")
		}
	})
	switch {
	case err == nil:
		m.cache.Put(j.Key, data)
		m.stats.Add(metrics.SvcJobsDone, 1)
		m.tenants.Add(j.Tenant, metrics.TenantDone, 1)
		finish(StateDone, data, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.stats.Add(metrics.SvcJobsCanceled, 1)
		finish(StateCanceled, nil, err)
	default:
		m.stats.Add(metrics.SvcJobsFailed, 1)
		finish(StateFailed, nil, err)
	}
}
