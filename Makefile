GO ?= go

.PHONY: test race bench bench-smoke bench-json bench-pr4 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 mutexprofile fault-soak

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The performance ledger: every workload of BENCHMARK.json, end-to-end and
# per-layer metrics (~2.5 min; see bench/README.md for -runs and -compare).
# bench/ is a module of its own, which `go test ./...` does not descend
# into: its smoke test is `go test -C bench . -short`.
bench:
	$(GO) run -C bench .

# One iteration of every benchmark: catches benchmarks that rot without
# paying for real measurement.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime=1x ./...

# Machine-readable perf numbers for the tracked benchmark set (see
# BENCH_PR3.json for the committed baseline/post pairs).
bench-json:
	./cmd/experiments/bench_pr3.sh

# Concurrency benchmark set: group-commit folding, concurrent writers,
# volume service (see BENCH_PR4.json).
bench-pr4:
	./cmd/experiments/bench_pr4.sh

# Scatter-gather benchmark set: zero-copy merged dispatch vs the old
# scratch-copy merge, plus the PR 4 drift re-runs (see BENCH_PR5.json).
bench-pr5:
	./cmd/experiments/bench_pr5.sh

# Robustness benchmark set: scheduler retry-path overhead with and without
# faults, thin-write drift with the health-mode gates in place, and the
# Fig. 4 serial-path guard (see BENCH_PR6.json).
bench-pr6:
	./cmd/experiments/bench_pr6.sh

# Telemetry benchmark set: obs primitive floors, StatsDevice wrap cost,
# thin-write drift with full instrumentation, snapshot price, and the
# Fig. 4 serial-path guard (see BENCH_PR7.json).
bench-pr7:
	./cmd/experiments/bench_pr7.sh

# Sharded-pool benchmark set: the commit-per-write writer-scaling sweep
# (1/4/16/64 writers x GOMAXPROCS 1/4). Set BASELINE=<rev> to also run the
# pre-PR A/B pair (see BENCH_PR8.json).
bench-pr8:
	./cmd/experiments/bench_pr8.sh

# Flight-recorder benchmark set: disabled/enabled Record floors plus the
# hot-write-path A/B drift guard. Set BASELINE=<rev> (PR 9 baseline:
# 0fa7cb8) to also run the pre-PR pair (see BENCH_PR9.json).
bench-pr9:
	./cmd/experiments/bench_pr9.sh

# Real-storage fast-path benchmark set: queue writers/readers and the
# full-stack writer A/B over mem / buffered file / O_DIRECT backends and
# dispatch-window sizes. inflight=1 is the serialized baseline — no
# worktree needed (see BENCH_PR10.json).
bench-pr10:
	./cmd/experiments/bench_pr10.sh

# Contention triage: the writer-scaling sweep with mutex profiling; the
# profile lands in /tmp/mutex.out for `go tool pprof`.
mutexprofile:
	$(GO) test -run XXX -bench 'BenchmarkShardedWriters/procs=4' \
		-benchtime 8000x -mutexprofile /tmp/mutex.out ./internal/thinp/
	@echo "profile: go tool pprof -top /tmp/mutex.out"

# Short-budget robustness soak: every fault-injection, health-ladder,
# retry and sweep suite under the race detector, twice. Mirrors the CI
# fault-soak job; the full sweeps (no -short stride) run in `make test`.
fault-soak:
	$(GO) test -race -count=2 \
		-run 'Fault|Flaky|Mode|Sweep|Retry|Barrier|Stress|NoSpace|Deadline|Health' \
		./internal/storage/ ./internal/ioq/ ./internal/thinp/ ./internal/core/ .
