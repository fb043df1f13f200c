# Build, test and benchmark entry points for the RAMpage simulator.

GO ?= go

# Every experiment's text is mirrored under testdata/golden/, one
# <id>.txt each, beside one <id>.json for each experiment with a JSON
# form (tables 3-5, figs 2-4 and policies). tiny/ holds the texts the
# harness unit tests check at their tiny scale.
GOLDEN_DIR := testdata/golden

.PHONY: all build test vet race fleet-test verify verify-long bench bench-hot bench-snapshot bench-check bench-checkpoint profile golden regress clean

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The concurrency-bearing paths: scheduler and sweep machinery, the
# replacement policies (whose eviction counters are process-global
# atomics), the content-addressed store and the checkpoint index over
# it, plus the experiment service's job queue and HTTP layer (-short
# skips the service's full-scale golden test; the golden CI job runs
# it).
race:
	$(GO) test -race ./internal/policy/ ./internal/harness/... ./internal/sim/... ./internal/regress/ ./internal/metrics/ ./internal/cas/ ./internal/checkpoint/
	$(GO) test -race -short ./internal/server/... ./internal/jobs/... ./internal/fleet/

# The full multi-process fleet gate: in-process unit tests, then a real
# coordinator + two worker processes serving the six sweep goldens
# (table3-5, fig2-4) byte-identically (with a disk-store restart), then the chaos run that
# SIGKILLs a worker mid-sweep. Mirrors the CI fleet job; budget ~10 min
# locally (longer under -race).
fleet-test:
	$(GO) test -race -short -count=1 ./internal/fleet/
	$(GO) test -race -count=1 -timeout 50m -run 'TestFleetMultiProcessGolden|TestFleetWorkerKillChaos' -v ./internal/fleet/

# Reference-oracle differential suite: replay seeded traces through
# the slow, obviously-correct oracle models and the production machines
# in lockstep, requiring bit-identical reports (see "Verifying
# correctness" in EXPERIMENTS.md). verify-long raises the traces to
# multiple million references (the scheduled CI job).
verify:
	$(GO) test -race ./internal/oracle/

verify-long:
	$(GO) test ./internal/oracle/ -long -timeout 30m

# Full artifact benchmark suite (one pass, quick feedback).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Just the simulator hot-loop benchmarks that gate performance work.
bench-hot:
	$(GO) test -bench='Table3|Fig4|Throughput' -benchmem -run='^$$' .

# Machine-readable benchmark snapshot: three repetitions of every
# artifact benchmark, converted to JSON for regression tracking.
# Snapshots are named by tag (BENCH_<tag>.json) so each optimization
# round commits its own baseline instead of overwriting history:
# BENCH_batch.json is the pre-columnar batching round, BENCH_hotloop2.json
# the columnar/arena/fused-fast-path round. The raw transcript goes to
# a temp file first so a failed bench run leaves the committed snapshot
# untouched.
BENCH_TAG ?= hotloop2
BENCH_SNAPSHOT := BENCH_$(BENCH_TAG).json
bench-snapshot:
	$(GO) test -bench=. -benchmem -run='^$$' -count=3 . | tee bench_raw.tmp
	$(GO) run ./tools/benchjson < bench_raw.tmp > $(BENCH_SNAPSHOT).tmp
	mv $(BENCH_SNAPSHOT).tmp $(BENCH_SNAPSHOT)
	rm -f bench_raw.tmp

# Compare a fresh hot-loop bench pass against the committed snapshot
# for $(BENCH_TAG) (minimum ns/op per benchmark, 5% regression budget
# by default; CI gates at 10% to ride out shared-runner noise).
BENCH_TOL ?= 0.05
bench-check:
	$(GO) test -bench='Table3|Fig4|Throughput' -benchmem -run='^$$' -count=3 . | tee bench_raw.tmp
	$(GO) run ./tools/benchjson < bench_raw.tmp > bench_got.tmp.json
	rm -f bench_raw.tmp
	$(GO) run ./tools/regress -mode bench -subset -tol $(BENCH_TOL) $(BENCH_SNAPSHOT) bench_got.tmp.json
	rm -f bench_got.tmp.json

# Warm-state checkpoint benchmarks: the cold sweep (simulate + capture)
# against the warm sweep (every cell restored from its final
# checkpoint), and the half-budget resume against the complete restore
# of the same run. Regenerates the committed BENCH_checkpoint.json
# snapshot; `regress -mode ratio -min 3` requires both ratios to show
# at least a 3x speedup.
bench-checkpoint:
	$(GO) test -bench='Checkpoint' -benchmem -run='^$$' -count=3 . | tee bench_raw.tmp
	$(GO) run ./tools/benchjson < bench_raw.tmp > BENCH_checkpoint.json.tmp
	mv BENCH_checkpoint.json.tmp BENCH_checkpoint.json
	rm -f bench_raw.tmp

# Profile the heaviest hot-loop benchmark (the Table 3 baseline-vs-
# RAMpage sweep) and print the top-10 flat CPU and allocation sites.
# Profiles land under profiles/ for interactive follow-up with
# `go tool pprof -http`.
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -bench 'Table3BaselineVsRAMpage' -benchmem -run='^$$' -benchtime 3x \
		-cpuprofile $(PROFILE_DIR)/cpu.out -memprofile $(PROFILE_DIR)/mem.out -o $(PROFILE_DIR)/bench.test .
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/cpu.out
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/mem.out

# Regenerate the committed default-scale goldens (seed 42): every
# experiment's text and each JSON document, from one run that simulates
# each distinct cell once. Only needed when the simulator's behaviour
# changes intentionally; commit the result.
golden:
	$(GO) run ./cmd/rampage-bench -exp all -scale default -outdir $(GOLDEN_DIR)

# Regenerate every golden into a temp dir and diff the directories
# (exact: simulated data is deterministic): the JSON documents with
# tools/regress, the texts byte for byte with diff. Both make a file
# present on one side only a failure, so a deleted golden or an
# experiment that stopped rendering cannot slip through.
regress: REGRESS_TMP := $(shell mktemp -d)
regress:
	$(GO) run ./cmd/rampage-bench -exp all -scale default -outdir $(REGRESS_TMP)
	$(GO) run ./tools/regress -mode report $(GOLDEN_DIR) $(REGRESS_TMP)
	diff -r -x tiny -x '*.json' $(GOLDEN_DIR) $(REGRESS_TMP)
	rm -rf $(REGRESS_TMP)

clean:
	$(GO) clean ./...
	rm -f bench_raw.tmp bench_got.tmp.json BENCH_*.json.tmp
	rm -rf $(PROFILE_DIR)
