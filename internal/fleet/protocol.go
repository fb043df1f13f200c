// Package fleet turns the experiment service into a coordinator/worker
// fabric: one rampage-server process (the coordinator) shards sweep
// cells across worker processes running the same binary in -worker
// mode. Dispatch is pull-based work stealing — idle workers lease
// cells over HTTP, so faster machines naturally take more of the grid
// — keyed by the harness's canonical config hashes, which makes cells
// deduplicable fleet-wide and results content-addressed. Leases have a
// TTL: a worker that dies mid-cell simply stops renewing, and the
// coordinator requeues its cells for the survivors. Because the
// simulator is deterministic, any cell may run anywhere (or twice) and
// the assembled document is still byte-identical to a local run.
package fleet

import (
	"encoding/json"
	"errors"

	"rampage/internal/harness"
)

// ProtoVersion gates registration: a worker built against a different
// report schema must not contribute cells (its ReportJSON fields could
// silently differ). It tracks the harness report version.
const ProtoVersion = harness.ReportVersion

// Errors surfaced by the coordinator API.
var (
	// ErrDraining reports that the coordinator refuses new work.
	ErrDraining = errors.New("fleet: coordinator is draining")
	// ErrNotWireable reports a configuration that cannot travel to
	// workers (custom profile sets).
	ErrNotWireable = errors.New("fleet: configuration is not serializable for distribution")
	// ErrUnknownWorker reports a lease/renew/complete from a worker ID
	// the coordinator does not know — typically after a coordinator
	// restart. Workers re-register and continue.
	ErrUnknownWorker = errors.New("fleet: unknown worker")
)

// CellSpec is one sweep cell in wire form: the canonical content
// address, the serializable configuration and the simulation point.
// Key is harness.CellKey(Config.Config(), Spec), the address the
// results store keeps the cell's report under, so identical cells
// collapse across experiments, workers and restarts.
type CellSpec struct {
	Key    string             `json:"key"`
	Config harness.WireConfig `json:"config"`
	Spec   harness.RunSpec    `json:"spec"`
}

// RegisterRequest introduces a worker. Version must match the
// coordinator's ProtoVersion.
type RegisterRequest struct {
	Version  int    `json:"version"`
	Name     string `json:"name,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
}

// RegisterResponse assigns the worker its identity and cadence.
type RegisterResponse struct {
	WorkerID   string `json:"worker_id"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"`
	PollMs     int64  `json:"poll_ms"`
}

// LeaseRequest asks for up to Max cells. Counters piggybacks the
// worker's local service-counter snapshot for the coordinator's
// per-worker /metricsz rollup.
type LeaseRequest struct {
	WorkerID string            `json:"worker_id"`
	Max      int               `json:"max"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// LeaseResponse hands out leased cells. Draining tells the worker the
// coordinator is shutting down (no further cells will come); PollMs is
// the suggested idle poll interval.
type LeaseResponse struct {
	Cells    []CellSpec `json:"cells,omitempty"`
	Draining bool       `json:"draining,omitempty"`
	PollMs   int64      `json:"poll_ms"`
}

// RenewRequest extends the leases on cells the worker is still
// executing; a worker that dies stops renewing and the cells requeue
// at their deadline.
type RenewRequest struct {
	WorkerID string   `json:"worker_id"`
	Keys     []string `json:"keys"`
}

// CompleteRequest streams one finished cell back: the ReportJSON bytes
// on success, or the simulation error. Completion is idempotent — a
// result for an already-finished or unknown cell is accepted (and
// persisted) rather than rejected, since content-addressed results
// from a deterministic simulator cannot conflict.
type CompleteRequest struct {
	WorkerID string          `json:"worker_id"`
	Key      string          `json:"key"`
	Report   json.RawMessage `json:"report,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// WorkerStatus is one worker's row in the coordinator's status
// document (/fleet/v1/workers and the /metricsz fleet section).
type WorkerStatus struct {
	ID          string            `json:"id"`
	Name        string            `json:"name,omitempty"`
	Parallel    int               `json:"parallel"`
	Inflight    int               `json:"inflight"`
	CellsDone   uint64            `json:"cells_done"`
	CellsFailed uint64            `json:"cells_failed"`
	LastSeenMs  int64             `json:"last_seen_ms"`
	Counters    map[string]uint64 `json:"counters,omitempty"`
}

// Status is the coordinator's fleet snapshot: queue depths, per-worker
// rows and the summed per-worker counter rollup.
type Status struct {
	Draining bool              `json:"draining"`
	Pending  int               `json:"pending"`
	Leased   int               `json:"leased"`
	Workers  []WorkerStatus    `json:"workers"`
	Rollup   map[string]uint64 `json:"rollup,omitempty"`
}
