// Package server exposes the experiment harness over HTTP: the
// RAMpage experiment service. Requests name experiments or single
// simulation points in the same vocabulary as the CLIs (scales,
// system names, issue-rate/size grids); responses are the exact
// versioned JSON documents rampage-bench and rampage-sim emit, so a
// served table3 is byte-comparable against the committed goldens.
//
// The service layers the jobs manager's guarantees onto HTTP:
// content-addressed caching (a repeated request never re-simulates),
// singleflight (identical concurrent requests share one simulation),
// bounded-queue backpressure (429 + Retry-After instead of unbounded
// latency), cancellation (client disconnect or DELETE aborts the
// underlying sweep), and graceful drain for shutdown.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rampage/internal/cas"
	"rampage/internal/checkpoint"
	"rampage/internal/fleet"
	"rampage/internal/harness"
	"rampage/internal/jobs"
	"rampage/internal/metrics"
	"rampage/internal/policy"
)

// Config sizes the service.
type Config struct {
	// Scales maps scale names to harness configurations. Nil selects
	// the standard harness scales (quick, default, full); tests inject
	// smaller ones.
	Scales map[string]harness.Config
	// Workers bounds concurrently running jobs (min 1). Each sweep job
	// additionally parallelizes across its grid cells, governed by
	// SweepParallel.
	Workers int
	// QueueDepth bounds accepted-but-not-running jobs (min 1); beyond
	// it submissions get 429.
	QueueDepth int
	// JobTimeout bounds one job's execution (0 = unlimited).
	JobTimeout time.Duration
	// CacheBytes budgets the result cache (<= 0 = unlimited).
	CacheBytes int64
	// SweepParallel is the per-job grid parallelism (harness
	// Config.Workers; 0 = one per CPU).
	SweepParallel int
	// RetryAfter is the hint returned with 429 responses (default 5s).
	RetryAfter time.Duration
	// TenantRate, when positive, rate-limits each tenant's submissions
	// of real work (jobs per second, accruing up to TenantBurst tokens;
	// see jobs.Config). Exhausted buckets get 429 with a bucket-derived
	// Retry-After. Tenants are named by the X-Tenant header or ?tenant=
	// query parameter; the empty name is the shared anonymous tenant.
	TenantRate  float64
	TenantBurst int
	// TenantWeights sets per-tenant fair-queue weights (absent = 1).
	TenantWeights map[string]int
	// Stats receives the service counters; nil allocates a private set.
	Stats *metrics.ServiceStats
	// TenantStats receives per-tenant counters; nil allocates a private
	// set.
	TenantStats *metrics.TenantStats
	// CheckpointBytes budgets the warm-state checkpoint store's
	// resident bytes (<= 0 = unlimited); CheckpointDir is its disk
	// directory ("" = evictions are dropped). Every captured checkpoint
	// is written through to the directory and re-indexed when a server
	// opens it, so checkpoints survive a restart; it may be DiskDir
	// itself. Every job's runs share the store, so repeated and
	// extended requests warm-start from the newest dominating
	// checkpoint.
	CheckpointBytes int64
	CheckpointDir   string
	// DiskDir, when set, roots the persistent disk-backed result store
	// behind the in-memory LRU: content-addressed documents that
	// survive restarts and deduplicate cells fleet-wide. DiskBytes is
	// its byte budget (<= 0 = unlimited).
	DiskDir   string
	DiskBytes int64
	// FleetLeaseTTL bounds how long a worker may hold a leased cell
	// without renewing before the coordinator requeues it (0 = the
	// fleet default).
	FleetLeaseTTL time.Duration
}

// Server is the HTTP experiment service.
type Server struct {
	cfg     Config
	mgr     *jobs.Manager
	stats   *metrics.ServiceStats
	tenants *metrics.TenantStats
	ckpts   *checkpoint.Store
	disk    *cas.Store // the results disk tier; nil without DiskDir
	fleet   *fleet.Coordinator
	mux     *http.ServeMux
}

// New builds the service and starts its worker pool. Callers must
// Drain it on shutdown. The only construction failure is an unusable
// result or checkpoint directory.
func New(cfg Config) (*Server, error) {
	if cfg.Stats == nil {
		cfg.Stats = &metrics.ServiceStats{}
	}
	if cfg.TenantStats == nil {
		cfg.TenantStats = &metrics.TenantStats{}
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	var disk *cas.Store
	if cfg.DiskDir != "" {
		d, err := jobs.NewDiskStore(cfg.DiskDir, cfg.DiskBytes, cfg.Stats)
		if err != nil {
			return nil, err
		}
		disk = d
	}
	ckpts, err := checkpoint.NewStore(cfg.CheckpointBytes, cfg.CheckpointDir, cfg.Stats)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		stats:   cfg.Stats,
		tenants: cfg.TenantStats,
		ckpts:   ckpts,
		disk:    disk,
		mgr: jobs.NewManager(jobs.Config{
			Workers:       cfg.Workers,
			QueueDepth:    cfg.QueueDepth,
			JobTimeout:    cfg.JobTimeout,
			CacheBytes:    cfg.CacheBytes,
			TenantRate:    cfg.TenantRate,
			TenantBurst:   cfg.TenantBurst,
			TenantWeights: cfg.TenantWeights,
			Stats:         cfg.Stats,
			Tenants:       cfg.TenantStats,
			Disk:          disk,
		}),
		mux: http.NewServeMux(),
	}
	s.fleet = fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL: cfg.FleetLeaseTTL,
		Disk:     disk,
		Stats:    cfg.Stats,
		Local:    s.runOrphan,
	})
	s.routes()
	return s, nil
}

// runOrphan runs a fleet cell no live worker remains to take, through
// the runner workers use, with this server's checkpoint store.
func (s *Server) runOrphan(ctx context.Context, cell fleet.CellSpec) (report []byte, err error) {
	stop := fleet.RunLocal(ctx, []fleet.CellSpec{cell}, s.ckpts, 1, func(_ int, r []byte, e error) { report, err = r, e })
	if stop != nil {
		return nil, stop
	}
	return report, err
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.fleet.Routes(s.mux)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats exposes the counter set (tests assert on it).
func (s *Server) Stats() *metrics.ServiceStats { return s.stats }

// Fleet exposes the coordinator (worker-mode processes and tests talk
// to it directly).
func (s *Server) Fleet() *fleet.Coordinator { return s.fleet }

// Drain stops admitting work and waits for in-flight jobs; if ctx
// expires first, remaining jobs are canceled. The fleet coordinator
// drains first: no new leases are created for new work, but cells
// already queued (they belong to in-flight jobs) keep flowing to
// workers so those jobs can finish before the manager's wait returns.
func (s *Server) Drain(ctx context.Context) error {
	s.fleet.Drain()
	return s.mgr.Drain(ctx)
}

// configFor resolves a scale name and optional seed override into a
// validated harness configuration with the service's sweep
// parallelism applied.
func (s *Server) configFor(scale string, seed *uint64) (harness.Config, error) {
	if scale == "" {
		scale = "default"
	}
	var cfg harness.Config
	if s.cfg.Scales != nil {
		c, ok := s.cfg.Scales[scale]
		if !ok {
			return harness.Config{}, fmt.Errorf("unknown scale %q", scale)
		}
		cfg = c
	} else {
		c, err := harness.ConfigForScale(scale)
		if err != nil {
			return harness.Config{}, err
		}
		cfg = c
	}
	if seed != nil {
		cfg.Seed = *seed
	}
	cfg.Workers = s.cfg.SweepParallel
	if err := cfg.Validate(); err != nil {
		return harness.Config{}, err
	}
	return cfg, nil
}

// experimentRequest names one experiment sweep. Zero grids select the
// paper defaults; the figure experiments pin their own issue rate.
type experimentRequest struct {
	ID         string   `json:"id"`
	Scale      string   `json:"scale,omitempty"`
	Seed       *uint64  `json:"seed,omitempty"`
	RatesMHz   []uint64 `json:"rates_mhz,omitempty"`
	SizesBytes []uint64 `json:"sizes_bytes,omitempty"`
}

// runRequest names one simulation point. Metrics additionally
// attaches an event-probe collector (the PR-2 observer layer) for the
// run and includes its summary in the document — the summary is as
// deterministic as the report, so the result stays cacheable.
// MaxRefs overrides the scale's reference budget, and ExtendRefs asks
// for that budget plus K more references: because the budget is part
// of the cache key but not the checkpoint prefix, an extended run is a
// distinct cached document that warm-starts from the shorter run's
// stored state instead of re-simulating the shared prefix.
type runRequest struct {
	Scale       string  `json:"scale,omitempty"`
	Seed        *uint64 `json:"seed,omitempty"`
	System      string  `json:"system"`
	IssueMHz    uint64  `json:"issue_mhz"`
	SizeBytes   uint64  `json:"size_bytes"`
	SwitchTrace bool    `json:"switch_trace,omitempty"`
	Policy      string  `json:"policy,omitempty"`
	Metrics     bool    `json:"metrics,omitempty"`
	MaxRefs     uint64  `json:"max_refs,omitempty"`
	ExtendRefs  uint64  `json:"extend_refs,omitempty"`
}

// httpError carries a status code out of request-assembly helpers.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errorf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// experimentJob turns an experiment request into a jobs.Request whose
// document is byte-identical to rampage-bench -format json output. The
// request is expanded once, up front, so a bad grid is refused with
// 400 before anything is queued.
func (s *Server) experimentJob(req experimentRequest) (jobs.Request, error) {
	e, ok := harness.FindExperiment(req.ID)
	if !ok {
		return jobs.Request{}, errorf(http.StatusNotFound, "unknown experiment %q", req.ID)
	}
	if !e.HasJSONForm() {
		return jobs.Request{}, errorf(http.StatusBadRequest,
			"experiment %q has no JSON form (the service serves tables 3-5, figs 2-4 and policies)", req.ID)
	}
	cfg, err := s.configFor(req.Scale, req.Seed)
	if err != nil {
		return jobs.Request{}, errorf(http.StatusBadRequest, "%v", err)
	}
	sh, err := harness.ShapeOf(req.ID, req.RatesMHz, req.SizesBytes)
	if err != nil {
		return jobs.Request{}, errorf(http.StatusBadRequest, "%v", err)
	}
	key := harness.ExperimentKey(cfg, req.ID, req.RatesMHz, req.SizesBytes)
	return s.cellJob(cfg, key, "experiment:"+req.ID, sh.CellSpecs(), func(reports []harness.ReportJSON) (any, error) {
		return sh.Doc(reports)
	}), nil
}

// runJob turns a run request into a jobs.Request producing the
// rampage-sim -format json document: a one-cell job folded into a run
// document.
func (s *Server) runJob(req runRequest) (jobs.Request, error) {
	cfg, err := s.configFor(req.Scale, req.Seed)
	if err != nil {
		return jobs.Request{}, errorf(http.StatusBadRequest, "%v", err)
	}
	system, err := harness.ParseSystemKind(req.System)
	if err != nil {
		return jobs.Request{}, errorf(http.StatusBadRequest, "%v", err)
	}
	spec := harness.RunSpec{
		System:      system,
		IssueMHz:    req.IssueMHz,
		SizeBytes:   req.SizeBytes,
		SwitchTrace: req.SwitchTrace,
		Policy:      req.Policy,
	}
	if err := spec.Validate(); err != nil {
		return jobs.Request{}, errorf(http.StatusBadRequest, "%v", err)
	}
	if req.MaxRefs > 0 {
		cfg.MaxRefs = req.MaxRefs
	}
	if req.ExtendRefs > 0 {
		if cfg.MaxRefs == 0 {
			return jobs.Request{}, errorf(http.StatusBadRequest,
				"extend_refs needs a base budget (set max_refs or use a budgeted scale)")
		}
		if cfg.MaxRefs+req.ExtendRefs < cfg.MaxRefs {
			return jobs.Request{}, errorf(http.StatusBadRequest,
				"extend_refs %d overflows the %d-reference base budget", req.ExtendRefs, cfg.MaxRefs)
		}
		cfg.MaxRefs += req.ExtendRefs
	}
	key := harness.RunKey(cfg, spec)
	sysLabel := harness.SystemLabel(spec.System, spec.Policy)
	label := fmt.Sprintf("run:%s@%dMHz/%dB", sysLabel, spec.IssueMHz, spec.SizeBytes)
	if req.ExtendRefs > 0 {
		label = fmt.Sprintf("extend:%s@%dMHz/%dB+%d", sysLabel, spec.IssueMHz, spec.SizeBytes, req.ExtendRefs)
	}
	jr := s.cellJob(cfg, key, label, []harness.RunSpec{spec}, func(reports []harness.ReportJSON) (any, error) {
		return harness.RunDoc{Version: harness.ReportVersion, Kind: "run", Report: reports[0]}, nil
	})
	if req.Metrics {
		// The one job off the cell runner: the pool drops observers, and
		// a run with one never restores. The observer never changes the
		// report, but the document gains a metrics section, so it is a
		// distinct cache entry.
		jr.Key += ":metrics"
		jr.Do = func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			col := metrics.NewCollector(0)
			c := cfg
			c.Checkpoints, c.Observer = s.ckpts, col
			rep, err := harness.Run(ctx, c, spec)
			if err != nil {
				return nil, err
			}
			progress(cellEvent(0, spec, harness.NewReportJSON(rep)))
			return encodeDoc(harness.NewRunDoc(rep, col))
		}
	}
	return jr, nil
}

// cellJob builds the jobs.Request for a job of cells: Do runs specs
// under cfg with this server's checkpoint store, publishes each
// finished cell to the job's event stream as a cell payload (its
// canonical index, grid coordinates and compact ReportJSON), and folds
// the reports into the job's document; Replay re-derives those events
// from a cached document. The cells run on the fleet only when workers
// are live and the job has two or more cells: a lease waits for a
// worker's poll, and an extend job restores the base run this server's
// checkpoint store holds.
func (s *Server) cellJob(cfg harness.Config, key, label string, specs []harness.RunSpec, fold func([]harness.ReportJSON) (any, error)) jobs.Request {
	cfg.Checkpoints = s.ckpts
	return jobs.Request{
		Key:    key,
		Label:  label,
		Cells:  len(specs),
		Replay: func(doc []byte) ([][]byte, error) { return replayCells(doc, specs) },
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			run := harness.RunCells
			if len(specs) > 1 && s.fleet.LiveWorkers() > 0 {
				run = s.fleet.RunCells
			}
			reports, err := run(ctx, cfg, specs, func(k int, rep harness.ReportJSON) {
				progress(cellEvent(k, specs[k], rep))
			})
			if err != nil {
				return nil, err
			}
			doc, err := fold(reports)
			if err != nil {
				return nil, err
			}
			return encodeDoc(doc)
		},
	}
}

// encodeDoc renders a document in the stable WriteJSON layout.
func encodeDoc(doc any) ([]byte, error) {
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// handleListExperiments inventories the experiments and marks which
// have a JSON form the service can serve.
func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	type item struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		Servable bool   `json:"servable"`
	}
	var items []item
	for _, e := range harness.Experiments() {
		items = append(items, item{ID: e.ID, Title: e.Title, Servable: e.HasJSONForm()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": items, "scales": s.scaleNames()})
}

func (s *Server) scaleNames() []string {
	if s.cfg.Scales == nil {
		return harness.ScaleNames
	}
	names := make([]string, 0, len(s.cfg.Scales))
	for name := range s.cfg.Scales {
		names = append(names, name)
	}
	return names
}

// handleExperiment serves one experiment synchronously:
// GET /v1/experiments/table3?scale=default&rates=200,400&sizes=4096.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	req := experimentRequest{ID: r.PathValue("id"), Scale: r.URL.Query().Get("scale")}
	if v := r.URL.Query().Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad seed %q", v))
			return
		}
		req.Seed = &seed
	}
	var err error
	if req.RatesMHz, err = harness.ParseGridList(r.URL.Query().Get("rates")); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.SizesBytes, err = harness.ParseGridList(r.URL.Query().Get("sizes")); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	jreq, err := s.experimentJob(req)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	s.serveSync(w, r, jreq)
}

// handleRun serves one simulation point synchronously: POST /v1/runs.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeBody(r, &req, maxRequestBody); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	jreq, err := s.runJob(req)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	s.serveSync(w, r, jreq)
}

// tenantOf names the requesting tenant: the X-Tenant header wins,
// then the ?tenant= query parameter; absent both, the shared
// anonymous tenant "".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

// serveSync answers a request from the cache when possible, otherwise
// submits it and blocks until the shared job finishes. Backpressure
// surfaces as 429 with a Retry-After hint; a draining service as 503.
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, req jobs.Request) {
	req.Tenant = tenantOf(r)
	if data, ok := s.mgr.Lookup(req.Key); ok {
		writeDocument(w, data)
		return
	}
	j, err := s.mgr.Submit(req)
	if err != nil {
		writeSubmitError(w, err, s.cfg.RetryAfter)
		return
	}
	data, err := s.mgr.Wait(r.Context(), j)
	switch {
	case err == nil:
		writeDocument(w, data)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client went away or the job was canceled under it; the
		// job itself keeps running for other waiters unless it too was
		// canceled. 499-style: nothing useful to say.
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// jobRequest is the async submission body: kind "experiment", "run" or
// "extend" plus that kind's fields. The run fields (scale and seed
// included) are runRequest's, promoted; an experiment's own are id and
// its grids. An "extend" job lengthens a run by extend_refs references
// on top of its base budget, warm-starting from the newest dominating
// checkpoint.
type jobRequest struct {
	Kind       string   `json:"kind"`
	ID         string   `json:"id,omitempty"`
	RatesMHz   []uint64 `json:"rates_mhz,omitempty"`
	SizesBytes []uint64 `json:"sizes_bytes,omitempty"`
	runRequest
}

// handleSubmitJob enqueues work asynchronously: POST /v1/jobs returns
// 202 with the job status; poll GET /v1/jobs/{id} and fetch
// GET /v1/jobs/{id}/result.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := decodeBody(r, &req, maxRequestBody); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	jreq, err := s.jobFor(req)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	jreq.Tenant = tenantOf(r)
	j, err := s.mgr.Submit(jreq)
	if err != nil {
		writeSubmitError(w, err, s.cfg.RetryAfter)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// jobFor builds the jobs.Request for an async submission body without
// submitting it; a refusal carries its HTTP status.
func (s *Server) jobFor(req jobRequest) (jobs.Request, error) {
	switch req.Kind {
	case "experiment":
		return s.experimentJob(experimentRequest{
			ID: req.ID, Scale: req.Scale, Seed: req.Seed,
			RatesMHz: req.RatesMHz, SizesBytes: req.SizesBytes,
		})
	case "extend":
		if req.ExtendRefs == 0 {
			return jobs.Request{}, errorf(http.StatusBadRequest, "extend job needs extend_refs > 0")
		}
		fallthrough
	case "run":
		return s.runJob(req.runRequest)
	}
	return jobs.Request{}, errorf(http.StatusBadRequest, "unknown job kind %q (want experiment, run or extend)", req.Kind)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	st := j.Status()
	switch st.State {
	case jobs.StateDone:
		data, err := j.Result()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeDocument(w, data)
	case jobs.StateFailed:
		writeError(w, http.StatusInternalServerError, st.Error)
	case jobs.StateCanceled:
		writeError(w, http.StatusConflict, "job was canceled")
	default:
		// Still queued or running: 202 tells the poller to come back.
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.mgr.Get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if !s.mgr.Cancel(id) {
		writeError(w, http.StatusConflict, "job already finished")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	length, capacity := s.mgr.QueueDepth()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"queue_length":   length,
		"queue_capacity": capacity,
	})
}

// handleMetricsz serves the service counters. The default rendering
// is the Prometheus text exposition format (0.0.4) so standard
// scrapers work out of the box; ?format=json or an Accept header
// preferring application/json keeps the legacy structured document.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if wantsJSONMetrics(r) {
		s.writeMetricsJSON(w)
		return
	}
	s.writeMetricsProm(w)
}

func wantsJSONMetrics(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func (s *Server) writeMetricsJSON(w http.ResponseWriter) {
	length, capacity := s.mgr.QueueDepth()
	doc := map[string]any{
		"counters": s.stats.Snapshot(),
		"tenants":  s.tenants.Snapshot(),
		"cache": map[string]any{
			"entries": s.mgr.Cache().Len(),
			"bytes":   s.mgr.Cache().Bytes(),
		},
		"checkpoints": map[string]any{
			"entries": s.ckpts.Len(),
			"bytes":   s.ckpts.Bytes(),
		},
		"queue": map[string]any{
			"length":   length,
			"capacity": capacity,
		},
		"fleet":             s.fleet.Status(),
		"policy_evictions":  policy.EvictionsSnapshot(),
		"workload_captures": harness.WorkloadCaptures(),
	}
	if s.disk != nil {
		doc["disk"] = map[string]any{
			"entries": s.disk.Len(),
			"bytes":   s.disk.Bytes(),
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// writeMetricsProm renders every counter and gauge in the Prometheus
// text format, deterministically ordered: service counters first, then
// the labeled per-policy family, the process-wide workload-capture
// counter and the per-tenant families, then the gauges.
func (s *Server) writeMetricsProm(w http.ResponseWriter) {
	w.Header().Set("Content-Type", metrics.PromContentType)
	p := metrics.NewPromWriter(w)

	for c := metrics.ServiceCounter(0); c < metrics.NumServiceCounters; c++ {
		name := "rampage_" + c.String() + "_total"
		p.Counter(name, "Service counter "+c.String()+".")
		p.SampleUint(name, nil, s.stats.Get(c))
	}

	evictions := policy.EvictionsSnapshot()
	p.Counter("rampage_policy_evictions_total", "SRAM page evictions by replacement policy.")
	for _, pol := range metrics.SortedKeys(evictions) {
		p.SampleUint("rampage_policy_evictions_total", [][2]string{{"policy", pol}}, evictions[pol])
	}
	p.Counter("rampage_workload_captures_total", "Workloads the cell pool captured in columns, process-wide.")
	p.SampleUint("rampage_workload_captures_total", nil, harness.WorkloadCaptures())

	tenants := s.tenants.Snapshot()
	tenantNames := metrics.SortedKeys(tenants)
	for c := metrics.TenantCounter(0); c < metrics.NumTenantCounters; c++ {
		name := "rampage_" + c.String() + "_total"
		p.Counter(name, "Per-tenant counter "+c.String()+".")
		for _, tenant := range tenantNames {
			p.SampleUint(name, [][2]string{{"tenant", tenant}}, tenants[tenant][c.String()])
		}
	}

	type gauge struct {
		name, help string
		value      uint64
	}
	length, capacity := s.mgr.QueueDepth()
	gauges := []gauge{
		{"rampage_queue_length", "Jobs accepted but not yet running.", uint64(length)},
		{"rampage_queue_capacity", "Queue admission bound.", uint64(capacity)},
		{"rampage_cache_entries", "Result cache entries resident in memory.", uint64(s.mgr.Cache().Len())},
		{"rampage_cache_bytes", "Result cache resident bytes.", uint64(s.mgr.Cache().Bytes())},
		{"rampage_checkpoint_entries", "Warm-state checkpoints stored, in memory or on disk.", uint64(s.ckpts.Len())},
		{"rampage_checkpoint_bytes", "Warm-state checkpoint resident bytes.", uint64(s.ckpts.Bytes())},
	}
	if s.disk != nil {
		gauges = append(gauges,
			gauge{"rampage_disk_entries", "Persistent result-store entries.", uint64(s.disk.Len())},
			gauge{"rampage_disk_bytes", "Persistent result-store bytes.", uint64(s.disk.Bytes())},
		)
	}
	fs := s.fleet.Status()
	gauges = append(gauges,
		gauge{"rampage_fleet_pending", "Fleet cells awaiting a lease.", uint64(fs.Pending)},
		gauge{"rampage_fleet_leased", "Fleet cells currently leased.", uint64(fs.Leased)},
		gauge{"rampage_fleet_workers", "Registered fleet workers.", uint64(len(fs.Workers))},
	)
	for _, g := range gauges {
		p.Gauge(g.name, g.help)
		p.SampleUint(g.name, nil, g.value)
	}
}

// maxRequestBody bounds run and job request bodies.
const maxRequestBody = 1 << 20

// decodeBody decodes a JSON request body of at most limit bytes into
// dst, refusing unknown fields.
func decodeBody(r *http.Request, dst any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeDocument sends a cached/computed report document verbatim —
// the bytes are already the stable WriteJSON rendering, so they pass
// through untouched to stay golden-comparable.
func writeDocument(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeRequestError maps request-assembly errors (which carry their
// own status) onto the response.
func writeRequestError(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		writeError(w, he.code, he.msg)
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// writeSubmitError maps manager admission errors: a full queue or an
// exhausted tenant token bucket is 429 with a Retry-After hint (the
// bucket's refill time when rate limited), a draining service 503.
func writeSubmitError(w http.ResponseWriter, err error, retryAfter time.Duration) {
	var rl *jobs.RateLimitError
	switch {
	case errors.As(err, &rl):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rl.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "tenant rate limited; retry later")
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
		writeError(w, http.StatusTooManyRequests, "queue full; retry later")
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// retryAfterSeconds rounds a wait up to whole seconds (min 1 — a
// Retry-After of 0 would invite an immediate, pointless retry).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
