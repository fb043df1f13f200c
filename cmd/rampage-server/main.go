// Command rampage-server serves the paper's experiments over HTTP.
// Results are the same versioned JSON documents the CLIs emit, served
// from a content-addressed cache: repeating a request never re-runs
// the simulation, and identical concurrent requests share one run.
//
// The same binary is both halves of a fleet. By default it is the
// coordinator: it serves the experiment API, and when workers register
// it shards sweep grids across them (pull-based work stealing with
// leases; a dead worker's cells are requeued). With -store-dir,
// results also persist in a content-addressed disk store that survives
// restarts. With -worker it is a worker instead: it registers with
// -coordinator-url, leases cells, simulates them locally (with its own
// warm-state checkpoint store) and streams results back; -store-dir
// additionally memoizes finished cells on disk, so a re-leased cell
// (coordinator restart, lease churn) is answered without re-simulating.
//
// Usage:
//
//	rampage-server                       # listen on :8080
//	rampage-server -addr :9090 -workers 2
//	rampage-server -store-dir /var/rampage/results -store-mb 512
//	rampage-server -worker -coordinator-url http://host:8080 -fleet-parallel 4
//
//	curl localhost:8080/v1/experiments
//	curl localhost:8080/v1/experiments/table3?scale=quick
//	curl -X POST -d '{"kind":"experiment","id":"table3"}' localhost:8080/v1/jobs
//	curl -N localhost:8080/v1/jobs/j1/events        # live cell stream (NDJSON)
//	curl -N -H 'Accept: text/event-stream' localhost:8080/v1/jobs/j1/events
//	curl localhost:8080/fleet/v1/workers
//
// SIGINT/SIGTERM drain gracefully: the coordinator finishes in-flight
// simulations (up to -drain-timeout) while refusing new requests; a
// worker finishes its leased cells, deregisters and exits (a second
// signal aborts immediately — the coordinator requeues its cells).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rampage/internal/cas"
	"rampage/internal/checkpoint"
	"rampage/internal/fleet"
	"rampage/internal/jobs"
	"rampage/internal/metrics"
	"rampage/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 1, "concurrently running jobs (each sweep job also parallelizes across its grid cells)")
		queue        = flag.Int("queue", 8, "queued-job bound; beyond it submissions get 429")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job execution bound (0 = unlimited)")
		cacheMB      = flag.Int64("cache-mb", 256, "result cache budget in MiB (0 = unlimited)")
		sweepWorkers = flag.Int("sweep-parallel", 0, "per-job grid-cell parallelism (0 = one per CPU)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight jobs before canceling them")
		ckptMB       = flag.Int64("checkpoint-mb", 64, "warm-state checkpoint store resident budget in MiB (0 = unlimited)")
		ckptDir      = flag.String("checkpoint-dir", "", "checkpoint directory: every captured checkpoint is written through and re-indexed at startup, so checkpoints survive a restart; may be -store-dir (empty = memory only, evictions are dropped)")
		storeDir     = flag.String("store-dir", "", "persistent result store directory (empty = memory-only caching)")
		storeMB      = flag.Int64("store-mb", 1024, "persistent result store budget in MiB (0 = unlimited)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "fleet lease TTL before a silent worker's cells are requeued (0 = default 15s)")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant job admissions per second (0 = no rate limiting)")
		tenantBurst  = flag.Int("tenant-burst", 0, "per-tenant admission burst (0 = rate rounded up, min 1)")

		workerMode     = flag.Bool("worker", false, "run as a fleet worker instead of a coordinator")
		coordinatorURL = flag.String("coordinator-url", "", "coordinator base URL (worker mode), e.g. http://host:8080")
		workerName     = flag.String("worker-name", "", "worker label in the coordinator's status (default: hostname)")
		fleetParallel  = flag.Int("fleet-parallel", 1, "cells this worker executes concurrently (worker mode)")
	)
	flag.Parse()

	if *workerMode {
		os.Exit(runWorker(*coordinatorURL, *workerName, *fleetParallel, *ckptMB<<20, *ckptDir, *storeDir, *storeMB<<20))
	}

	svc, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		CacheBytes:      *cacheMB << 20,
		SweepParallel:   *sweepWorkers,
		CheckpointBytes: *ckptMB << 20,
		CheckpointDir:   *ckptDir,
		DiskDir:         *storeDir,
		DiskBytes:       *storeMB << 20,
		FleetLeaseTTL:   *leaseTTL,
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rampage-server:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("rampage-server: listening on %s", *addr)

	select {
	case err := <-errCh:
		// Listener failed before any signal (e.g. address in use).
		fmt.Fprintln(os.Stderr, "rampage-server:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Printf("rampage-server: draining (up to %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections and finish in-flight requests, while
	// the jobs manager finishes (or, at the deadline, cancels) the
	// queued and running simulations those requests are waiting on.
	drainErr := svc.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rampage-server: shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("rampage-server: drain canceled in-flight jobs: %v", drainErr)
		os.Exit(1)
	}
	log.Println("rampage-server: drained cleanly")
}

// runWorker is the -worker entry point: lease, simulate, stream back,
// until the coordinator drains or we are signaled. The first signal
// drains (finish leased cells, deregister); a second aborts
// immediately and lease expiry hands our cells to the survivors.
func runWorker(url, name string, parallel int, ckptBytes int64, ckptDir, storeDir string, storeBytes int64) int {
	if url == "" {
		fmt.Fprintln(os.Stderr, "rampage-server: -worker requires -coordinator-url")
		return 2
	}
	if name == "" {
		name, _ = os.Hostname()
	}
	stats := &metrics.ServiceStats{}
	var disk *cas.Store
	if storeDir != "" {
		d, err := jobs.NewDiskStore(storeDir, storeBytes, stats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rampage-server:", err)
			return 2
		}
		disk = d
	}
	ckpts, err := checkpoint.NewStore(ckptBytes, ckptDir, stats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rampage-server:", err)
		return 2
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		CoordinatorURL: url,
		Name:           name,
		Parallel:       parallel,
		Checkpoints:    ckpts,
		Disk:           disk,
		Stats:          stats,
		Logf:           log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rampage-server:", err)
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Println("rampage-worker: draining (finishing leased cells; signal again to abort)")
		w.Drain()
		<-sig
		log.Println("rampage-worker: aborting")
		cancel()
	}()

	log.Printf("rampage-worker: %s -> %s (parallel=%d)", name, url, parallel)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "rampage-worker:", err)
		return 1
	}
	log.Println("rampage-worker: done")
	return 0
}
