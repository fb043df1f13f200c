package metrics

import "sync/atomic"

// ServiceCounter identifies one counter in the experiment service's
// vocabulary. Where the Event probes record *simulated* dynamics from
// inside a single run, service counters record *real* serving
// dynamics — cache behaviour, queue admission, job outcomes — across
// concurrent requests, so their collector must be thread-safe.
type ServiceCounter uint8

const (
	// SvcCacheHit is a request answered from the content-addressed
	// result cache; SvcCacheMiss one whose result had to be computed;
	// SvcCacheDedup one collapsed onto an identical in-flight job
	// (singleflight); SvcCacheEvict an entry pushed out by the byte
	// budget.
	SvcCacheHit ServiceCounter = iota
	SvcCacheMiss
	SvcCacheDedup
	SvcCacheEvict
	// SvcSimRuns counts jobs whose simulation actually executed — the
	// denominator the cache counters save against.
	SvcSimRuns
	// SvcJobsAccepted / SvcJobsRejected count queue admissions and
	// backpressure rejections (HTTP 429); SvcRateLimited counts
	// submissions refused by a tenant's token bucket (also 429, with a
	// bucket-derived Retry-After); the remaining counters are job
	// outcomes.
	SvcJobsAccepted
	SvcJobsRejected
	SvcRateLimited
	SvcJobsDone
	SvcJobsFailed
	SvcJobsCanceled
	// SvcCkptHit is a run warm-started from a stored checkpoint;
	// SvcCkptMiss one that had to start cold; SvcCkptEvict a checkpoint
	// pushed out of memory by the store's resident-byte budget. Together
	// with the store's byte gauge they make the fleet's warm ratio
	// observable on /metricsz.
	SvcCkptHit
	SvcCkptMiss
	SvcCkptEvict
	// SvcDiskHit is a result served from the persistent disk-backed
	// store; SvcDiskStore a document written to it; SvcDiskEvict an
	// entry removed by its byte-budget GC.
	SvcDiskHit
	SvcDiskStore
	SvcDiskEvict
	// Fleet counters: SvcFleetLeased cells handed to workers,
	// SvcFleetCompleted cells whose results came back,
	// SvcFleetRequeued cells reassigned after a worker died or its
	// lease expired, SvcFleetFailed cells that exhausted their retry
	// budget, SvcFleetLocal cells the coordinator executed itself
	// because no live worker remained.
	SvcFleetLeased
	SvcFleetCompleted
	SvcFleetRequeued
	SvcFleetFailed
	SvcFleetLocal
	// NumServiceCounters is the vocabulary size.
	NumServiceCounters
)

// String names the counter for /metricsz documents.
func (c ServiceCounter) String() string {
	switch c {
	case SvcCacheHit:
		return "cache_hits"
	case SvcCacheMiss:
		return "cache_misses"
	case SvcCacheDedup:
		return "cache_inflight_dedups"
	case SvcCacheEvict:
		return "cache_evictions"
	case SvcSimRuns:
		return "sim_runs"
	case SvcJobsAccepted:
		return "jobs_accepted"
	case SvcJobsRejected:
		return "jobs_rejected"
	case SvcRateLimited:
		return "jobs_rate_limited"
	case SvcJobsDone:
		return "jobs_done"
	case SvcJobsFailed:
		return "jobs_failed"
	case SvcJobsCanceled:
		return "jobs_canceled"
	case SvcCkptHit:
		return "checkpoint_hits"
	case SvcCkptMiss:
		return "checkpoint_misses"
	case SvcCkptEvict:
		return "checkpoint_evictions"
	case SvcDiskHit:
		return "disk_hits"
	case SvcDiskStore:
		return "disk_stores"
	case SvcDiskEvict:
		return "disk_evictions"
	case SvcFleetLeased:
		return "fleet_cells_leased"
	case SvcFleetCompleted:
		return "fleet_cells_completed"
	case SvcFleetRequeued:
		return "fleet_cells_requeued"
	case SvcFleetFailed:
		return "fleet_cells_failed"
	case SvcFleetLocal:
		return "fleet_cells_local"
	default:
		return "unknown"
	}
}

// SumSnapshots merges counter snapshots by summing values per name —
// the coordinator's per-worker /metricsz rollup.
func SumSnapshots(snaps ...map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for _, snap := range snaps {
		for name, v := range snap {
			out[name] += v
		}
	}
	return out
}

// ServiceStats is a fixed, allocation-free set of atomic counters.
// All methods are safe for concurrent use and safe on a nil receiver
// (a nil ServiceStats silently discards counts), so the jobs layer can
// run with metrics detached.
type ServiceStats struct {
	counts [NumServiceCounters]atomic.Uint64
}

// Add increments a counter by n.
func (s *ServiceStats) Add(c ServiceCounter, n uint64) {
	if s == nil {
		return
	}
	s.counts[c].Add(n)
}

// Counter is one counter of a set, bound so that code outside the
// service layer (the content-addressed store's tiers) can count an
// event without knowing which counter its owner charges. The zero
// Counter, like one bound on a nil set, discards.
type Counter struct {
	stats *ServiceStats
	c     ServiceCounter
}

// Counter binds counter c of the set.
func (s *ServiceStats) Counter(c ServiceCounter) Counter { return Counter{s, c} }

// Add increments the bound counter by n.
func (c Counter) Add(n uint64) { c.stats.Add(c.c, n) }

// Get returns one counter's current value.
func (s *ServiceStats) Get(c ServiceCounter) uint64 {
	if s == nil {
		return 0
	}
	return s.counts[c].Load()
}

// Snapshot returns all counters keyed by name, including zeros so the
// /metricsz document has a stable field set.
func (s *ServiceStats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, NumServiceCounters)
	for c := ServiceCounter(0); c < NumServiceCounters; c++ {
		if s == nil {
			out[c.String()] = 0
			continue
		}
		out[c.String()] = s.counts[c].Load()
	}
	return out
}
