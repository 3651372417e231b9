# Tier-1 gates and perf tooling. `make race` is the correctness gate for
# the parallel trial harness; `make bench` runs every layer's hot-path
# microbenchmarks, and `make bench-suite` writes the suite's
# BENCH_experiments.json. `make vet` and `make test` also cover the
# benchmark module (benchmark/, its own go.mod), whose smoke test runs
# every workload at smoke size and checks its digests, so a change to an
# API it calls fails here and not only in a benchmark run.

GO ?= go

.PHONY: all build test race fuzz vet staticcheck noise stash slo sched bench bench-suite bench-diff bench-accept audit profile profile-cpu cover ci

# Pinned staticcheck release; CI installs exactly this version so lint
# results are reproducible.
STATICCHECK_VERSION ?= 2023.1.7

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	cd benchmark && $(GO) test ./...

# Race gate over every package: the worker-pool trial runner, the
# single-threaded engine invariant beneath it, the packages whose
# processes wake each other (a parking process hands control straight
# to the next one on its own goroutine), and the allocation guards,
# which must hold in a race build too.
race:
	$(GO) test -race ./...

# Fuzz the engine's event order against a sorted-slice reference model,
# cache operation sequences against a map-based reference cache, file
# system operation sequences against a model of its allocators, the
# quantile sketch's merge algebra and error bounds against sorted samples,
# and gb-experiments' argument parsing (a rejected command line must leave
# the process-wide -workload and -cpus selections as they were).
# Plain `go test` runs only the committed seed corpora
# (testdata/fuzz/FuzzEngineOrder in internal/sim, testdata/fuzz/FuzzCacheOps
# in internal/cache, testdata/fuzz/FuzzFSOps in internal/fs,
# testdata/fuzz/FuzzSketch in internal/telemetry,
# testdata/fuzz/FuzzParseConfig in cmd/gb-experiments). Minimizing
# each new input is capped at 1 s: CI keeps no fuzz corpus between runs,
# so minimizing only spends the budget, and uncapped it stalls the
# search for seconds at a time.
fuzz:
	$(GO) test ./internal/sim -run NONE -fuzz FuzzEngineOrder -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/cache -run NONE -fuzz FuzzCacheOps -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/fs -run NONE -fuzz FuzzFSOps -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/telemetry -run NONE -fuzz FuzzSketch -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./cmd/gb-experiments -run NONE -fuzz FuzzParseConfig -fuzztime 30s -fuzzminimizetime 1s

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Lint with the pinned staticcheck when the binary is available; skip
# with a warning otherwise (offline dev boxes don't install tools, CI
# does — see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "warning: staticcheck not installed, skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# Contention sweep: ICL accuracy under competing workload traffic.
# WORKLOADS selects the generators, e.g. make noise WORKLOADS=scan,hog
WORKLOADS ?= scan,zipf,hog,web
noise: build
	$(GO) run ./cmd/gb-experiments -scale quick -workload $(WORKLOADS) noise

# Second-level stash tier sweep: gray-box vs naive admission over quota
# x workload intensity, with the degraded-mode (offline source) replay.
stash: build
	$(GO) run ./cmd/gb-experiments -scale quick stash

# SLO violation ramp: offered load vs tail latency, MAC gray-box
# admission against a naive static cap, scored by the request-tracing
# subsystem (p50/p99/p999, violations, critical-path split).
slo: build
	$(GO) run ./cmd/gb-experiments -scale quick slo

# SMP scheduler sweep: the noise and slo experiments re-run across
# simulated-processor counts (0 = the uncontended infinite-core model,
# the default everywhere else). CPUS selects the counts, e.g.
# make sched CPUS=0,1,4
CPUS ?= 0,2
sched: build
	$(GO) run ./cmd/gb-experiments -scale quick -cpus $(CPUS) noise slo

# Hot-path microbenchmarks of every layer, with allocation reporting:
# engine event dispatch, process handoff and the SMP scheduler (sim);
# intrusive rings, cache hit/evict and fork, and the VM page touch
# (ring, cache, vm); the stash tier; and the overhead of telemetry, audit
# and request tracing with each disabled (simos, core/fccd, telemetry).
# No number here is a gate: the AllocsPerRun tests in `make test` fail
# when a 0-allocs/op path allocates. The second line runs one 10⁶-process
# contended trial (a single iteration: the trial is seconds long).
bench:
	$(GO) test ./internal/sim ./internal/ring ./internal/cache ./internal/vm \
		./internal/stash ./internal/simos ./internal/core/fccd ./internal/telemetry \
		-run NONE -bench . -skip BenchmarkSched1MProcs -benchmem
	$(GO) test ./internal/sim -run NONE -bench BenchmarkSched1MProcs \
		-benchtime 1x -timeout 30m -benchmem

# Full quick-scale suite with the per-experiment timing report.
bench-suite: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null -bench-out BENCH_experiments.json

# Oracle-grounded inference audit of the quick suite: every ICL
# prediction scored against simulator ground truth.
audit: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null -audit AUDIT_experiments.json

# Virtual-time profile of the quick suite: folded stacks for
# flamegraph.pl / speedscope, plus a top-span table on stderr.
profile: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null -profile PROFILE_experiments.folded

# Real-CPU + heap profile of the quick suite: where the simulator itself
# spends cycles and allocations. Inspect with
#   go tool pprof CPU_experiments.pprof
#   go tool pprof MEM_experiments.pprof
profile-cpu: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null \
		-cpuprofile CPU_experiments.pprof -memprofile MEM_experiments.pprof

# Regression gate: rerun the quick suite and diff its timing report
# against the committed baseline with gb-bench (1.5x per experiment over
# a 100 ms noise floor, suite-level sign test at alpha 0.05 — see
# internal/bench). Non-blocking: wall clock on shared runners is noisy,
# so a regression warns rather than failing the build.
bench-diff: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null -bench-out BENCH_new.json
	$(GO) run ./cmd/gb-bench BENCH_experiments.json BENCH_new.json || \
		echo "warning: bench regression against the committed baseline (non-blocking)"

# Accept a new performance baseline: regenerate the timing report from a
# fresh quick-suite run, print the gb-bench diff against the committed
# BENCH_experiments.json, and replace the baseline with the fresh run
# (commit the updated file alongside the change that moved the numbers).
bench-accept: build
	$(GO) run ./cmd/gb-experiments -scale quick -o /dev/null -bench-out BENCH_accept.json
	$(GO) run ./cmd/gb-bench BENCH_experiments.json BENCH_accept.json || true
	mv BENCH_accept.json BENCH_experiments.json
	@echo "BENCH_experiments.json updated; review and commit it"

# Per-package statement coverage.
cover:
	$(GO) test -cover ./...

ci: build vet staticcheck test race fuzz bench bench-diff
